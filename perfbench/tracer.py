"""Runtime tracing of archlab's public functions, from outside ``src/``.

``Tracer.install`` replaces each traced function by a wrapper at every
place it can be reached: the defining module, every ``archlab.*`` module
that imported it by name (``archlab.cli.convolve_cdf``,
``archlab.serial.convolve_cdf`` ...) and, for methods, the class that
defines it.  A target that no longer exists is skipped and reported as
absent, so deleting a module or function never breaks a traced run.

Each call becomes a span ``(id, parent id, name, start, end)``; spans stay
in memory and are written by ``dump`` when the command ends.  Counts that
a span cannot carry (grid cells, CSV rows, RNG blocks, MLE iterations) are
recorded at the same boundaries, and every ``convolve_cdf`` result is kept
with its inputs so the benchmark can compare it with the frozen oracle.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

#: (module, attribute path, span name).  Methods of the distribution
#: classes are added by ``_distribution_targets``.
TARGETS = (
    ("archlab.cli", "main", "cli.main"),
    ("archlab.numerics", "convolve_cdf", "numerics.convolve_cdf"),
    ("archlab.kernels", "conv_cdf", "kernels.conv_cdf"),
    ("archlab.numerics", "integrate", "numerics.integrate"),
    ("archlab.numerics", "grid_eval", "numerics.grid_eval"),
    ("archlab.numerics", "write_rows_csv", "numerics.write_rows_csv"),
    ("archlab.numerics", "GridResult.to_csv", "numerics.GridResult.to_csv"),
    ("archlab.parallel", "stage_survival_grid", "parallel.stage_survival_grid"),
    ("archlab.parallel", "stage_survival_gap", "parallel.stage_survival_gap"),
    ("archlab.parallel", "alpha_extrema", "parallel.alpha_extrema"),
    ("archlab.serial", "dependence_profile", "serial.dependence_profile"),
    ("archlab.serial", "dependence_difference", "serial.dependence_difference"),
    ("archlab.mc", "uniform_blocks", "mc.uniform_blocks"),
    ("archlab.mc", "simulate_serial", "mc.simulate_serial"),
    ("archlab.mc", "run_theorem1_mc", "mc.run_theorem1_mc"),
    ("archlab.mc", "sample_iid", "mc.sample_iid"),
    ("archlab.recall", "sample_vu_serial", "recall.sample_vu_serial"),
    ("archlab.recall", "weibull_mle", "recall.weibull_mle"),
)

DIST_METHODS = ("cdf", "hazard", "cum_hazard", "quantile")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stack = [0]
        self.next_id = 1
        self.counts: dict[str, int] = defaultdict(int)
        self.conv: list[tuple] = []
        self.absent: list[str] = []

    # -- recording ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, after=None, before=None):
        """Span-recording wrapper; ``before`` may rewrite the arguments,
        ``after`` sees arguments and result."""
        idx = self._name_index(name)
        spans, stack = self.spans, self.stack

        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, idx, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, idx, t0, t1))
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, idx: int, fn):
        """Each resumption of the generator is one span; each item one
        count under ``<name>.items``."""
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                sid = self.next_id
                self.next_id = sid + 1
                parent = stack[-1]
                stack.append(sid)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    spans.append((sid, parent, idx, t0, t1))
                counts[name + ".items"] += 1
                yield item

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the rest as absent."""
        for module_name, path, name in TARGETS:
            self._install_one(module_name, path, name)
        for cls, method in _distribution_targets():
            self._replace_method(cls, method, f"distributions.{method}")

    def _install_one(self, module_name: str, path: str, name: str) -> None:
        module = sys.modules.get(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = module
        if module is not None and owner_name:
            owner = getattr(module, owner_name, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            self.absent.append(name)
            return
        if inspect.isclass(owner):
            self._replace_method(owner, attr, name)
            return
        orig = getattr(owner, attr)
        wrapper = self.wrap(name, orig, *_HOOKS.get(name, (None, None)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "archlab" or mod_name.startswith("archlab."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def _replace_method(self, cls, attr: str, name: str) -> None:
        orig = cls.__dict__.get(attr)
        if orig is None:
            self.absent.append(f"{name}@{cls.__name__}")
            return
        setattr(cls, attr, self.wrap(name, orig, *_HOOKS.get(name, (None, None))))

    def dump(self, path: str, command_id: int) -> None:
        payload = {"command": command_id, "names": self.names,
                   "spans": self.spans, "counts": dict(self.counts),
                   "conv": self.conv, "absent": self.absent}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _distribution_targets():
    module = sys.modules.get("archlab.distributions")
    base = getattr(module, "ProcessingTimeDistribution", None)
    if base is None:
        return []
    classes = [obj for obj in vars(module).values()
               if inspect.isclass(obj) and issubclass(obj, base)]
    return [(cls, m) for cls in classes for m in DIST_METHODS
            if m in cls.__dict__]


# -- per-target hooks: (after, before) --------------------------------------

def _record_conv(tracer, args, kwargs, result):
    """Keep Weibull-like inputs and results; tau may be scalar or array."""
    dist = args[0] if args else kwargs.get("dist")
    tau = args[1] if len(args) > 1 else kwargs.get("tau")
    k, u = getattr(dist, "k", None), getattr(dist, "u", None)
    if k is not None and u is not None:
        taus, values = np.broadcast_arrays(np.asarray(tau, dtype=float),
                                           np.asarray(result, dtype=float))
        tracer.conv.extend((float(k), float(u), float(t), float(v))
                           for t, v in zip(taus.ravel(), values.ravel()))


def _count_cells(tracer, args, kwargs, result):
    values = getattr(result, "values", None)
    if values is not None:
        tracer.counts["numerics.grid_eval.cells"] += int(values.size)


def _count_iterations(tracer, args, kwargs, result):
    tracer.counts["recall.weibull_mle.iterations"] += int(
        getattr(result, "iterations", 0))


def _count_rows(tracer, args, kwargs):
    """Pass the row iterable through a counter (argument 3, ``rows``)."""
    counts = tracer.counts

    def counted(rows):
        n = 0
        for row in rows:
            n += 1
            yield row
        counts["numerics.write_rows_csv.rows"] += n

    if len(args) >= 3:
        args = args[:2] + (counted(args[2]),) + args[3:]
    elif "rows" in kwargs:
        kwargs = dict(kwargs, rows=counted(kwargs["rows"]))
    return args, kwargs


_HOOKS = {
    "numerics.convolve_cdf": (_record_conv, None),
    "numerics.grid_eval": (_count_cells, None),
    "recall.weibull_mle": (_count_iterations, None),
    "numerics.write_rows_csv": (None, _count_rows),
}
