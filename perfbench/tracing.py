"""Per-layer spans and exact op counts for one traced `twistorsec verify`.

The tracer wraps the program's functions from outside: the program's source
is not touched.  Every public function defined in ``projline``,
``flat_model``, ``vhs``, ``torus_forms`` and ``lambda_lifts`` gets a span, as
do the suite functions and ``render_report``.  Each wrapper is bound wherever
the original is bound in a ``twistorsec`` module namespace, so calls through
imported names (``lambda_lifts``' own ``wedge``, ``suites``' ``ll.`` and
``tf.`` prefixes, the package re-exports) are traced too.

``QQi`` arithmetic and ``FourierScalar`` products are counted, not timed: a
span around a 20 us multiply would cost as much as the multiply.  Their time
belongs to the layer whose span is open when they run.

A layer's self time is the time its spans are the innermost open span, that
is, each span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict

from workloads import ALL_SUITES

#: Layers whose public functions get spans.
SPANNED_LAYERS = ("projline", "flat_model", "vhs", "torus_forms", "lambda_lifts")

#: Functions whose call count and inclusive time are reported, per layer.
REPORTED = {
    "torus_forms": ("wedge", "integrate_trace", "dbar", "del_op", "commutator",
                    "conj_transpose"),
    "lambda_lifts": ("integrability_residuals", "linearized_residuals",
                     "gauge_tangent", "gauge_series_inverse",
                     "gauge_transform_lift", "omega_hat", "energy_of_lift",
                     "d_energy_of_lift", "second_variation", "c_star_fixed_lift"),
    "flat_model": ("omega0_killing", "energy", "d_energy", "group_action",
                   "real_involution", "holomorphic_metric", "fundamental_field"),
    "projline": ("sl2_bracket", "killing", "wronskian"),
    "vhs": ("energy_closed", "energy_recursive", "xi_bracket"),
}

#: QQi methods counted under each scalar counter.  ``__rsub__`` and
#: ``__rtruediv__`` delegate to ``__sub__`` and ``__truediv__`` and
#: ``__pow__`` to ``__mul__``, so they are counted there.
QQI_COUNTERS = {
    "scalars.qqi_mul.calls": ("__mul__", "__rmul__"),
    "scalars.qqi_add.calls": ("__add__", "__radd__", "__sub__"),
    "scalars.qqi_div.calls": ("__truediv__",),
}


def metric_names() -> list:
    """Every per-layer metric as (name, unit), in report order."""
    names = [(key, "count") for key in QQI_COUNTERS]
    names += [("torus_forms.fourier_mul.calls", "count"),
              ("torus_forms.coeff_products", "count")]
    for layer, functions in REPORTED.items():
        names.append((f"{layer}.self_s", "s"))
        for fn in functions:
            names += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.s", "s")]
    for suite in ALL_SUITES:
        names += [(f"suites.{suite}.s", "s"), (f"suites.{suite}.records", "count")]
    names += [("report.render_report.s", "s"), ("report.bytes", "bytes")]
    return names


class Tracer:
    """Collects spans and counts; :meth:`install` patches the loaded program."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self._stack = []  # one [child seconds] cell per open span

    def _span(self, layer: str, key: str, fn, size=None):
        """Wrap ``fn`` in a span; ``size`` is (counter, function of the result)."""
        stack, counts, inclusive = self._stack, self.counts, self.inclusive
        self_time, clock = self.self_time, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    counts[size[0]] += size[1](result)
                return result
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                self_time[layer] += took - cell[0]
                counts[f"{key}.calls"] += 1
                inclusive[f"{key}.s"] += took
        return wrapper

    def _count(self, cls, method: str, key: str):
        fn, counts = getattr(cls, method), self.counts

        def wrapper(a, b):
            result = fn(a, b)
            if result is not NotImplemented:
                counts[key] += 1
            return result
        setattr(cls, method, wrapper)

    def install(self):
        """Wrap the already imported ``twistorsec`` modules in place."""
        from twistorsec import report, scalars, suites, torus_forms

        replace = {}
        for layer in SPANNED_LAYERS:
            module = importlib.import_module(f"twistorsec.{layer}")
            for name, fn in list(vars(module).items()):
                if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    replace[fn] = self._span(layer, f"{layer}.{name}", fn)

        for name, fn in list(suites.SUITES.items()):
            replace[fn] = self._span("suites", f"suites.{name}", fn,
                                     (f"suites.{name}.records", len))
            suites.SUITES[name] = replace[fn]
        replace[report.render_report] = self._span(
            "report", "report.render_report", report.render_report,
            ("report.bytes", lambda text: len(text.encode())))

        for modname, module in list(sys.modules.items()):
            if modname == "twistorsec" or modname.startswith("twistorsec."):
                for name, value in list(vars(module).items()):
                    if isinstance(value, types.FunctionType) and value in replace:
                        setattr(module, name, replace[value])

        for key, methods in QQI_COUNTERS.items():
            for method in methods:
                self._count(scalars.QQi, method, key)
        self._count_fourier(torus_forms.FourierScalar)

    def _count_fourier(self, cls):
        fn, counts = cls.__mul__, self.counts

        def wrapper(a, b):
            if isinstance(b, cls):
                counts["torus_forms.fourier_mul.calls"] += 1
                counts["torus_forms.coeff_products"] += len(a.modes) * len(b.modes)
            return fn(a, b)
        cls.__mul__ = wrapper

    def metrics(self) -> dict:
        """Every name of :func:`metric_names` with its value; absent ones are 0."""
        out = {}
        for name, unit in metric_names():
            if name.endswith(".self_s"):
                value = self.self_time[name[:-len(".self_s")]]
            elif unit == "s":
                value = self.inclusive[name]
            else:
                value = self.counts[name]
            out[name] = value
        return out
