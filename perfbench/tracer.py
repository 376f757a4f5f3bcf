"""Span tracing of the ews3x2 layers, recorded from outside the package.

The tracer replaces each public function of the six layer modules (model,
production, statics, geometry, estimate, cli) with a timing wrapper, under
every module attribute through which the package looks it up: `production`
imports `ews_matrix`, `validate_economy` and `solve_partial_pivot` by name,
the package root re-exports most functions, and each of those references is
swapped for the same wrapper.  Nothing in `src/` is edited.

Each call records one span: name, start, end, parent span and item id.
Spans stay in memory (flat arrays) until `save` writes them out.

Two counters are taken by handing the library counting stand-ins:

* the samplers get a `numpy.random.Generator` subclass in place of their
  integer seed, which yields the identical stream and counts candidate draws;
* `solve_equilibrium` gets proxies around its cost specs that count
  `unit_cost` calls, i.e. residual evaluations per Newton solve.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("model", "production", "statics", "geometry", "estimate", "cli")
#: public methods the benchmark calls directly inside a timed item
METHODS = {"estimate": ("EstimateReport.to_dict",)}


class CountingGenerator(np.random.Generator):
    """PCG64 generator that counts the samplers' candidate draws.

    Both samplers open every candidate with one
    ``dirichlet(np.ones(3), size=2)`` call for the distributive shares, so the
    number of such calls is the number of candidates drawn.
    ``np.random.default_rng`` hands a Generator back unchanged, and
    ``Generator(PCG64(seed))`` is exactly what it builds from an integer seed,
    so the stream the sampler sees is unchanged.
    """

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.draws = 0

    def dirichlet(self, alpha, size=None):
        if size == 2:
            self.draws += 1
        return super().dirichlet(alpha, size)


class CountingSpec:
    """Cost-function spec proxy that counts `unit_cost` evaluations."""

    __slots__ = ("spec", "count")

    def __init__(self, spec, count):
        self.spec = spec
        self.count = count

    def unit_cost(self, w):
        self.count[0] += 1
        return self.spec.unit_cost(w)

    def __getattr__(self, name):
        return getattr(self.spec, name)


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self, package):
        self.package = package
        self.error_type = package.Ews3x2Error
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.failed = array("b")
        self.stack: list[int] = []
        self.item_id = -1
        self.active = False
        #: sampler name -> [draws, accepted calls]
        self.draws: dict[str, list] = {}
        #: span index of a Newton solve -> unit_cost evaluations
        self.cost_evals: dict[int, int] = {}
        self._saved: list = []

    # -- installation ------------------------------------------------------

    def _modules(self):
        root = self.package.__name__
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == root or name.startswith(root + "."))]

    def install(self):
        """Swap every public layer function for its wrapper, everywhere.

        Spans are recorded only while `active` is set."""
        root = self.package.__name__
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{root}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{layer}.{path}", fn))
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()
        self.active = False

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.item_id)
        self.failed.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        tracer = self
        err = self.error_type
        hook = {"model.sample_economy_shares": self._sampler_hook,
                "production.sample_economy": self._sampler_hook,
                "production.solve_equilibrium": self._newton_hook}.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(nid)
            try:
                if hook is not None:
                    return hook(name, i, fn, args, kwargs)
                return fn(*args, **kwargs)
            except err:
                tracer.failed[i] = 1
                raise
            finally:
                tracer._close(i)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _sampler_hook(self, name, i, fn, args, kwargs):
        seed = args[0] if args else kwargs.pop("seed")
        rng = CountingGenerator(seed)
        counts = self.draws.setdefault(name, [0, 0])
        try:
            out = fn(rng, *args[1:], **kwargs)
        finally:
            counts[0] += rng.draws
        counts[1] += 1
        if dataclasses.is_dataclass(out) and hasattr(out, "seed"):
            out = dataclasses.replace(out, seed=seed)
        return out

    def _newton_hook(self, name, i, fn, args, kwargs):
        count = [0]
        specs = args[0] if args else kwargs.pop("specs")
        proxied = tuple(CountingSpec(s, count) for s in specs)
        try:
            return fn(proxied, *args[1:], **kwargs)
        finally:
            self.cost_evals[i] = count[0]

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item": np.frombuffer(self.item, dtype=np.int32),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
        }

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the durations of direct children.

        Calls are single-threaded and properly nested, so a span's direct
        children are disjoint and lie inside it.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return dur - child

    def save(self, path, extra: dict):
        """Write every span and the run's summary to a compressed .npz file."""
        import json
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a,
                            summary=np.array(json.dumps(extra)))
