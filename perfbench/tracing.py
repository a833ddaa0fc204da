"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces public functions of ``seiar`` with timing
wrappers in every module that binds them, because each consuming module
looks the name up in its own namespace (``calibrate.integrate`` and
``stability.integrate`` are separate bindings of one function).  A wrapper
records calls and the span's duration; a span's self time is its duration
minus the spans of wrapped functions it called.  Spans are aggregated per
layer name in memory; nothing is written while the workload runs.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

#: (layer name, defining module, function); wrapped wherever it is bound
WRAPPED = (
    ("config.load_config", "seiar.config", "load_config"),
    ("io.read_case_series", "seiar.io", "read_case_series"),
    ("io.write_csv", "seiar.io", "write_csv"),
    ("calibrate.fit", "seiar.calibrate", "fit"),
    ("calibrate.sse_objective", "seiar.calibrate", "sse_objective"),
    ("simulate.integrate", "seiar.simulate", "integrate"),
    ("simulate.daily_incidence", "seiar.simulate", "daily_incidence"),
    ("scenarios.rho_sweep", "seiar.scenarios", "rho_sweep"),
    ("scenarios.forecast", "seiar.scenarios", "forecast"),
    ("stability.lyapunov_audit", "seiar.stability", "lyapunov_audit"),
    ("stability.lyapunov_value", "seiar.stability", "lyapunov_value"),
    ("stability.classify_equilibrium", "seiar.stability", "classify_equilibrium"),
    ("model.control_reproduction_number", "seiar.model", "control_reproduction_number"),
)

#: units of the per-layer metrics that are not in seconds
UNITS = {"io.write_csv_rows": "count", "calibrate.fit_calls": "count",
         "calibrate.sse_objective_calls": "count", "calibrate.evals_per_fit": "count",
         "simulate.integrate_calls": "count", "simulate.integrate_days": "day",
         "simulate.integrate_us_per_call": "us", "simulate.integrate_us_per_day": "us/day",
         "stability.lyapunov_audit_calls": "count", "stability.lyapunov_value_calls": "count",
         "model.control_reproduction_number_calls": "count"}

#: per-layer metrics that count work; they must repeat exactly between runs
COUNTS = tuple(name for name, unit in UNITS.items() if unit in ("count", "day"))


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    days: float = 0.0
    rows: int = 0


class Tracer:
    """Collects spans between :meth:`install` and :meth:`uninstall`."""

    def __init__(self):
        self.spans = {name: Span() for name, _, _ in WRAPPED}
        self._children: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "seiar" or n.startswith("seiar.")) and m is not None]
        for name, module_name, attr in WRAPPED:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                continue  # the program no longer has this function
            wrapper = self._wrap(self.spans[name], original, name)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        for module, binding, original in reversed(self._saved):
            setattr(module, binding, original)
        self._saved.clear()

    def _wrap(self, record: Span, fn, name: str):
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == "simulate.integrate":
                config = kwargs.get("config", args[2] if len(args) > 2 else None)
                record.days += config.t_end - config.t0
            elif name == "io.write_csv":
                args = (args[0], args[1], _counted(record, args[2]))
            inner = [0.0]
            children.append(inner)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children.pop()
                record.calls += 1
                record.total_s += elapsed
                record.self_s += elapsed - inner[0]
                if children:
                    children[-1][0] += elapsed

        traced.__wrapped__ = fn
        return traced


def _counted(record: Span, rows):
    """Yield the rows handed to ``write_csv``, counting them."""
    for row in rows:
        record.rows += 1
        yield row


def per_layer(spans: dict[str, Span]) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    s = spans
    integrate = s["simulate.integrate"]
    fits = s["calibrate.fit"].calls
    return {
        "config.load_config_s": s["config.load_config"].total_s,
        "io.read_case_series_s": s["io.read_case_series"].total_s,
        "io.write_csv_s": s["io.write_csv"].total_s,
        "io.write_csv_rows": s["io.write_csv"].rows,
        "calibrate.fit_calls": fits,
        "calibrate.sse_objective_calls": s["calibrate.sse_objective"].calls,
        "calibrate.evals_per_fit": s["calibrate.sse_objective"].calls / fits if fits else 0.0,
        "calibrate.sse_objective_self_s": s["calibrate.sse_objective"].self_s,
        "calibrate.fit_self_s": s["calibrate.fit"].self_s,
        "simulate.integrate_calls": integrate.calls,
        "simulate.integrate_days": integrate.days,
        "simulate.integrate_s": integrate.total_s,
        "simulate.integrate_us_per_call":
            1e6 * integrate.total_s / integrate.calls if integrate.calls else 0.0,
        "simulate.integrate_us_per_day":
            1e6 * integrate.total_s / integrate.days if integrate.days else 0.0,
        "simulate.daily_incidence_s": s["simulate.daily_incidence"].total_s,
        "scenarios.rho_sweep_self_s": s["scenarios.rho_sweep"].self_s,
        "scenarios.forecast_self_s": s["scenarios.forecast"].self_s,
        "stability.lyapunov_audit_calls": s["stability.lyapunov_audit"].calls,
        "stability.lyapunov_audit_self_s": s["stability.lyapunov_audit"].self_s,
        "stability.lyapunov_value_calls": s["stability.lyapunov_value"].calls,
        "stability.lyapunov_value_s": s["stability.lyapunov_value"].total_s,
        "stability.classify_equilibrium_s": s["stability.classify_equilibrium"].total_s,
        "model.control_reproduction_number_calls":
            s["model.control_reproduction_number"].calls,
    }
