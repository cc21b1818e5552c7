"""Outside-in span tracer for the lcaframes certificate path.

The tracer wraps named functions of an already imported package from the
benchmark's side; the package's own files are untouched. Each wrapped call
becomes a span (boundary id, parent span id, start, end) held in flat arrays
in memory and written out once, at the end of a sample, by `save`.
Boundaries of kind "count" only count calls; they sit on paths hot enough
that a span would dominate what it measures.

A boundary that no longer exists in the package (deleted or moved) is
reported by `install` as absent. It is never wrapped, never counted as zero
and never an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

# (boundary, kind, metric suffixes). Names are "<module>.<attribute path>"
# inside the traced package; the first component is the layer.
BOUNDARIES = (
    ("cli.main", "span", ("calls", "self_s")),
    ("cli.build_from_descriptor", "span", ("calls", "s", "self_s")),
    ("frame.parseval_residual", "span", ("calls", "s", "self_s")),
    ("frame.telescoping_residual", "span", ("calls", "s", "self_s")),
    ("frame.ensure_certified", "span", ("calls", "s", "self_s")),
    ("frame.frame_operator", "span", ("calls", "s", "self_s")),
    ("frame.fiber_identity_sides", "span", ("calls", "s", "self_s")),
    ("frame.system_from_json", "span", ("calls", "s", "self_s")),
    ("frame.build_bspline_system", "span", ("calls", "s", "self_s")),
    ("frame.build_charfun_system", "span", ("calls", "s", "self_s")),
    ("functions.DiscreteFunction.translate", "span", ("calls", "s", "self_s")),
    ("functions.DiscreteFunction.inner", "span", ("calls", "s", "self_s")),
    ("functions.random_test_function", "span", ("calls", "s", "self_s")),
    ("filters.dual_sampling_plan", "span", ("calls", "s", "self_s")),
    ("filters.verify_uep", "span", ("calls", "s", "self_s")),
    ("filters.TrigPolynomial.eval", "span", ("calls", "s", "self_s")),
    ("filters.TrigPolynomial.eval_many", "span", ("calls", "s", "self_s")),
    ("filters.TrigPolynomial.eval_exact", "span", ("calls", "s", "self_s")),
    ("filters.CosetPiecewise.eval", "span", ("calls", "s", "self_s")),
    ("filters.CosetPiecewise.eval_exact", "span", ("calls", "s", "self_s")),
    ("exact.Radical.add", "count", ("calls",)),
    ("exact.Radical.mul", "count", ("calls",)),
    ("bspline.refinement_residual", "span", ("calls", "s", "self_s")),
    ("bspline.bspline_hat", "span", ("calls", "s", "self_s")),
    ("bspline.bspline_time", "span", ("calls", "s", "self_s")),
    ("bspline.wavelet_time", "span", ("calls", "s", "self_s")),
    ("charfun.indicator_refinement_residual", "span", ("calls", "s", "self_s")),
    ("charfun.IndicatorGenerator.hat", "span", ("calls", "s", "self_s")),
    ("lattices.ScaledLattice.points", "span", ("calls", "s", "self_s")),
    ("domains.contains", "span", ("calls", "s", "self_s")),
    ("domains.iter_points", "span", ("calls", "s", "self_s")),
    ("chains.chain_from_params", "span", ("calls", "s", "self_s")),
)

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name, _, _ in BOUNDARIES))

UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def _plan_key(args: dict, result) -> tuple:
    chain = args["chain"]
    return (chain.kind, repr(chain.params), args["k"], args["grid"], args["random"], args["seed"], repr(args["domain"]))


def _level_key(args: dict, result) -> tuple:
    return (args["system"].chain.kind, args["k"])


def _plan_points(args: dict, result) -> int:
    return len(args["plan"].points)


# Extra metrics observed at a boundary: (metric, kind, unit, reader).
# "sum" adds reader(args, result) over calls; "share" averages it;
# "per_distinct" is calls divided by the number of distinct reader keys.
PROBES = {
    "frame.ensure_certified": (("repeat_ratio", "per_distinct", "ratio", _level_key),),
    "filters.dual_sampling_plan": (
        ("points", "sum", "count", lambda a, r: len(r.points)),
        ("reuse_ratio", "per_distinct", "ratio", _plan_key),
    ),
    "filters.verify_uep": (
        ("points", "sum", "count", lambda a, r: r.samples),
        ("exact_share", "share", "ratio", lambda a, r: bool(r.exact)),
    ),
    "bspline.refinement_residual": (("points", "sum", "count", _plan_points),),
    "charfun.indicator_refinement_residual": (("points", "sum", "count", _plan_points),),
}


def metric_units() -> dict:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for name, _, suffixes in BOUNDARIES:
        for suffix in suffixes:
            units[f"{name}.{suffix}"] = UNITS[suffix]
        for metric, _, unit, _ in PROBES.get(name, ()):
            units[f"{name}.{metric}"] = unit
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _resolve(package: str, name: str):
    """(owner, attribute, raw object) for a boundary, or None when absent."""
    module_name, *path = name.split(".")
    try:
        owner = importlib.import_module(f"{package}.{module_name}")
    except ImportError:
        return None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = path[-1]
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        return None
    return owner, attr, raw


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self, package: str = "lcaframes", boundaries=BOUNDARIES, probes=PROBES):
        self.package = package
        self.boundaries = boundaries
        self.probes = probes
        self.names = [name for name, _, _ in boundaries]
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.outer = array("b")  # 0 when an enclosing span has the same boundary
        self.stack = [-1]
        self.active = [0] * len(boundaries)
        self.counts = [0] * len(boundaries)  # calls of "count" boundaries
        self.errors = {name.split(".")[0]: 0 for name in self.names}
        self.probe_state = {}  # (boundary, metric) -> accumulator
        self.broken_probes = set()
        self.absent = []

    def install(self) -> list:
        """Wrap every boundary that exists; return the names of absent ones."""
        for nid, (name, kind, _) in enumerate(self.boundaries):
            found = _resolve(self.package, name)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, raw = found
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            layer = name.split(".")[0]
            if kind == "count":
                wrapped = self._counter(fn, nid, layer)
            elif inspect.isgeneratorfunction(fn):
                wrapped = self._generator_span(fn, nid, layer)
            else:
                wrapped = self._span(fn, nid, layer, self._probe(name, fn))
            setattr(owner, attr, type(raw)(wrapped) if fn is not raw else wrapped)
            if not isinstance(owner, type):
                self._rebind_copies(fn, wrapped)
        return self.absent

    def _rebind_copies(self, fn, wrapped):
        """Replace `from .x import name` copies held by the package's modules."""
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)

    def _probe(self, name: str, fn):
        specs = self.probes.get(name)
        if not specs:
            return None
        signature = inspect.signature(fn)
        for metric, kind, _, _ in specs:
            self.probe_state[(name, metric)] = set() if kind == "per_distinct" else [0, 0]

        def probe(args, kwargs, result):
            try:
                bound = signature.bind(*args, **kwargs)
            except TypeError:
                self.broken_probes.update((name, m) for m, _, _, _ in specs)
                return
            bound.apply_defaults()
            for metric, kind, _, read in specs:
                key = (name, metric)
                try:
                    value = read(bound.arguments, result)
                except (AttributeError, KeyError, TypeError):
                    self.broken_probes.add(key)
                    continue
                state = self.probe_state[key]
                if kind == "per_distinct":
                    state.add(value)
                else:
                    state[0] += value
                    state[1] += 1

        return probe

    def _span(self, fn, nid, layer, probe):
        names, parents, starts, ends, outer = self.name_ids, self.parents, self.starts, self.ends, self.outer
        stack, active, errors, clock = self.stack, self.active, self.errors, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            outer.append(not active[nid])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                t1 = clock()
                active[nid] -= 1
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return wrapper

    def _generator_span(self, fn, nid, layer):
        """A span whose duration is the generator's busy time across resumptions."""
        names, parents, starts, ends, outer = self.name_ids, self.parents, self.starts, self.ends, self.outer
        stack, active, errors, clock = self.stack, self.active, self.errors, time.perf_counter

        def drive(gen, sid):
            busy = 0.0
            try:
                while True:
                    stack.append(sid)
                    active[nid] += 1
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException:
                        errors[layer] += 1
                        raise
                    finally:
                        busy += clock() - t0
                        active[nid] -= 1
                        stack.pop()
                    yield item
            finally:
                gen.close()
                ends[sid] = starts[sid] + busy

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            outer.append(not active[nid])
            starts.append(clock())
            ends.append(0.0)
            return drive(fn(*args, **kwargs), sid)

        return wrapper

    def _counter(self, fn, nid, layer):
        counts, errors = self.counts, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[nid] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise

        return wrapper

    def save(self, path, sample: int):
        """Write the spans of one sample; return the summary the driver needs."""
        import numpy as np

        np.savez(
            path,
            name=np.asarray(self.name_ids, dtype=np.int32),
            parent=np.asarray(self.parents, dtype=np.int64),
            start=np.asarray(self.starts, dtype=np.float64),
            end=np.asarray(self.ends, dtype=np.float64),
            outer=np.asarray(self.outer, dtype=np.int8),
            sample=np.full(len(self.name_ids), sample, dtype=np.int32),
        )
        probes = {}
        for (name, metric), state in self.probe_state.items():
            if (name, metric) in self.broken_probes:
                continue
            probes[f"{name}.{metric}"] = len(state) if isinstance(state, set) else state
        return {
            "names": self.names,
            "counts": self.counts,
            "errors": self.errors,
            "probes": probes,
            "absent": self.absent,
        }


def layer_metrics(spans, summary: dict, boundaries=BOUNDARIES, probes=PROBES) -> dict:
    """Per-layer metrics of one traced sample from its saved spans.

    `<name>.s` is the time inside the boundary, counted once for recursive
    calls; `<name>.self_s` is that minus the time covered by child spans.
    A ratio over zero calls is reported as 0.
    """
    import numpy as np

    nb = len(summary["names"])
    name = spans["name"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    calls = np.bincount(name, minlength=nb)
    inclusive = np.bincount(name, weights=dur * (spans["outer"] != 0), minlength=nb)
    exclusive = np.bincount(name, weights=self_time, minlength=nb)

    absent = set(summary["absent"])
    out = {}
    for nid, (bname, kind, suffixes) in enumerate(boundaries):
        if bname in absent:
            continue
        n_calls = int(summary["counts"][nid]) if kind == "count" else int(calls[nid])
        values = {"calls": n_calls, "s": float(inclusive[nid]), "self_s": float(exclusive[nid])}
        for suffix in suffixes:
            out[f"{bname}.{suffix}"] = values[suffix]
        for metric, pkind, _, _ in probes.get(bname, ()):
            key = f"{bname}.{metric}"
            if key not in summary["probes"]:
                continue
            raw = summary["probes"][key]
            if pkind == "per_distinct":
                out[key] = n_calls / raw if raw else 0.0
            elif pkind == "share":
                out[key] = raw[0] / raw[1] if raw[1] else 0.0
            else:
                out[key] = raw[0]
    present = {name.split(".")[0] for name, _, _ in boundaries if name not in absent}
    for layer, count in summary["errors"].items():
        if layer in present:
            out[f"{layer}.errors"] = count
    return out
