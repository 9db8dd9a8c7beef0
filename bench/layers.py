"""Layer boundaries of the landau package, timed from outside the program.

The traced run wraps the public functions listed here in every `landau` module
that binds them by name (``assemble`` is imported into ``resonance``,
``dynamics`` and ``toeplitz_ssf``, for example), plus
``AssembledOperator.factorized`` and the solver it returns.  Each call becomes
a span with a name, a start, an end and the span that was open when it began;
all spans of one run share a run id.  Spans stay in memory and are written out
when the run ends.  Nothing under ``src/`` changes.

``specfun``, ``potentials`` and ``numutil`` are leaf helpers, too fine-grained
to wrap without distorting the timings; they are measured through their
callers.

This module imports no numpy, so the traced run can pin the BLAS thread count
before anything loads it.
"""

import functools
import importlib
import json
import os
import sys
import time

MODULES = ("schrodinger1d", "operators", "resonance", "fgr", "dynamics",
           "toeplitz_ssf")

# span name -> (defining module, attribute); wrapped wherever landau binds it
FUNCTIONS = {
    "schrodinger1d.bound_states": ("schrodinger1d", "bound_states"),
    "schrodinger1d.jost_solutions": ("schrodinger1d", "jost_solutions"),
    "operators.assemble": ("operators", "assemble"),
    "resonance.find_eigenvalue_near": ("resonance", "find_eigenvalue_near"),
    "resonance.continue_in_kappa": ("resonance", "continue_in_kappa"),
    "fgr.fgr_value": ("fgr", "fgr_value"),
    "fgr.first_order_shift": ("fgr", "first_order_shift"),
    "fgr.fgr_channel": ("fgr", "fgr_channel"),
    "dynamics.autocorrelation": ("dynamics", "autocorrelation"),
    "dynamics.dilated_bound_vector": ("dynamics", "dilated_bound_vector"),
    "dynamics.fit_decay": ("dynamics", "fit_decay"),
    "toeplitz_ssf.gap_accumulation_check": ("toeplitz_ssf", "gap_accumulation_check"),
    "toeplitz_ssf.toeplitz_eigenvalues": ("toeplitz_ssf", "toeplitz_eigenvalues"),
    "toeplitz_ssf.transverse_profile": ("toeplitz_ssf", "transverse_profile"),
}

# scipy routines, timed only as bound in one module
BINDINGS = {
    "fgr.solve_banded": ("fgr", "solve_banded"),
    "toeplitz_ssf.eig_banded": ("toeplitz_ssf", "eig_banded"),
}

CLI_SPAN = "cli.main"

# per-layer metric -> unit; every traced run reports all of them, with counts
# and times 0 where a workload never enters the layer and ratios 0 where their
# base is 0
_CALLS_AND_TIME = (
    "schrodinger1d.bound_states", "schrodinger1d.jost_solutions",
    "operators.assemble", "operators.factorized", "operators.solve",
    "resonance.find_eigenvalue_near", "fgr.fgr_value", "fgr.solve_banded",
    "fgr.fgr_channel", "dynamics.autocorrelation", "toeplitz_ssf.eig_banded",
    "toeplitz_ssf.toeplitz_eigenvalues",
)
_TIME_ONLY = (
    "resonance.continue_in_kappa", "fgr.first_order_shift",
    "dynamics.dilated_bound_vector", "dynamics.fit_decay",
    "toeplitz_ssf.gap_accumulation_check", "toeplitz_ssf.transverse_profile",
    CLI_SPAN,
)
SPAN_METRICS = {
    **{f"{n}.calls": "count" for n in _CALLS_AND_TIME},
    **{f"{n}.s": "s" for n in _CALLS_AND_TIME + _TIME_ONLY},
    "operators.factorized.failed": "count",
    "operators.band_mb_computed": "MB",
    "resonance.find_eigenvalue_near.iterations": "count",
    "resonance.iterations_per_eigenvalue": "1",
    "fgr.fgr_value.self_s": "s",
    "dynamics.factorizations_per_series": "1",
    "toeplitz_ssf.eig_banded.empty_frac": "1",
}


class Tracer:
    """In-memory span recorder for one run of the program."""

    def __init__(self):
        self.run_id = os.urandom(8).hex()
        self.spans = []
        self._open = []  # ids of the spans enclosing the current call

    def begin(self, name):
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self._open.pop()

    def wrap(self, name, fn, on_result=None):
        """`fn` recording one span per call.  `on_result(span, args, result)`
        may add fields to the span and returns the result handed back."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span["failed"] = True
                raise
            finally:
                self.end(span)
            return on_result(span, args, result) if on_result else result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def _record_iterations(span, args, result):
    span["iterations"] = int(result[3])
    return result


def _record_empty(span, args, result):
    span["empty"] = len(result) == 0
    return result


class _TracedSolver:
    def __init__(self, tracer, inner):
        self._solve = tracer.wrap("operators.solve", inner.solve)

    def solve(self, rhs):
        return self._solve(rhs)


def install(tracer):
    """Wrap every layer boundary of the imported landau package in spans."""
    mods = {m: importlib.import_module(f"landau.{m}") for m in MODULES}
    package = [mod for key, mod in sys.modules.items()
               if key == "landau" or key.startswith("landau.")]
    hooks = {"resonance.find_eigenvalue_near": _record_iterations}
    for name, (home, attr) in FUNCTIONS.items():
        original = getattr(mods[home], attr)
        traced = tracer.wrap(name, original, hooks.get(name))
        for mod in package:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
    hooks = {"toeplitz_ssf.eig_banded": _record_empty}
    for name, (home, attr) in BINDINGS.items():
        setattr(mods[home], attr,
                tracer.wrap(name, getattr(mods[home], attr), hooks.get(name)))

    op_cls = mods["operators"].AssembledOperator

    def solver(span, args, result):
        # band storage of one zgbtrf factorization: (2 kl + ku + 1) x N complex
        op = args[0]
        span["band_mb"] = (3 * op.J + 1) * op.dim * 16 / 1e6
        return _TracedSolver(tracer, result)

    op_cls.factorized = tracer.wrap("operators.factorized", op_cls.factorized, solver)


def span_metrics(spans):
    """Per-layer counts and times (the keys of SPAN_METRICS) from one run's spans."""
    by_name = {}
    child_time = [0.0] * len(spans)
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)
        if sp["parent"] is not None:
            child_time[sp["parent"]] += sp["end"] - sp["start"]

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, key=None):
        return sum((sp["end"] - sp["start"]) if key is None else sp.get(key, 0)
                   for sp in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    def under(sp, name):
        while sp["parent"] is not None:
            sp = spans[sp["parent"]]
            if sp["name"] == name:
                return True
        return False

    out = {}
    for name in _CALLS_AND_TIME:
        out[f"{name}.calls"] = calls(name)
    for name in _CALLS_AND_TIME + _TIME_ONLY:
        out[f"{name}.s"] = total(name)
    fact = by_name.get("operators.factorized", ())
    eig = "resonance.find_eigenvalue_near"
    series = "dynamics.autocorrelation"
    out["operators.factorized.failed"] = sum(1 for sp in fact if sp.get("failed"))
    out["operators.band_mb_computed"] = max((sp.get("band_mb", 0.0) for sp in fact),
                                            default=0.0)
    out[f"{eig}.iterations"] = total(eig, "iterations")
    out["resonance.iterations_per_eigenvalue"] = ratio(
        total(eig, "iterations"),
        sum(1 for sp in by_name.get(eig, ()) if not sp.get("failed")))
    out["fgr.fgr_value.self_s"] = sum(sp["end"] - sp["start"] - child_time[sp["id"]]
                                      for sp in by_name.get("fgr.fgr_value", ()))
    out["dynamics.factorizations_per_series"] = ratio(
        sum(1 for sp in fact if under(sp, series)), calls(series))
    out["toeplitz_ssf.eig_banded.empty_frac"] = ratio(
        total("toeplitz_ssf.eig_banded", "empty"), calls("toeplitz_ssf.eig_banded"))
    return out
