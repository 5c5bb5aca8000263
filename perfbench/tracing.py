"""In-memory span tracing around the public functions of the qcc layers.

``install`` replaces each traced function with a wrapper at every place a
caller looks it up (the module attribute, or the name another module
bound with ``from ... import``).  Every call becomes a span with a name,
start, end, parent span, and the work counts its result reports:
``QuadResult.evaluations``, ``Observable.evaluations`` and the point and
evaluation counts of the inner Alice-window profiles.  Spans stay in
memory; ``Tracer.write`` stores them when the traced process ends.

Patch points that a later version of the program no longer has are
skipped, so the tracer keeps working when a layer is removed.
"""

import functools
import gzip
import importlib
import json
import time


class Tracer:
    """Spans in parallel lists; the open spans form a stack."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.evals = []
        self.points = []
        self.failed = []
        self._stack = []

    def _name_id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name):
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.evals.append(0)
        self.points.append(0)
        self.failed.append(False)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i, evals=0, points=0, failed=False, name=None):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self.evals[i] = evals
        self.points[i] = points
        self.failed[i] = failed
        if name is not None:
            self.name[i] = self._name_id(name)

    def summary(self):
        """Per span name: calls, evals, points, failures, failed_evals,
        self_ms and total_ms.  Self time is a span's duration minus the
        durations of its direct children."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            agg = out.setdefault(self.names[self.name[i]], {
                "calls": 0, "evals": 0, "points": 0, "failures": 0,
                "failed_evals": 0, "self_ms": 0.0, "total_ms": 0.0})
            dur = self.end[i] - self.start[i]
            agg["calls"] += 1
            agg["evals"] += self.evals[i]
            agg["points"] += self.points[i]
            agg["total_ms"] += 1e3 * dur
            agg["self_ms"] += 1e3 * (dur - child[i])
            if self.failed[i]:
                agg["failures"] += 1
                agg["failed_evals"] += self.evals[i]
        return out

    def write(self, path):
        """Store every span as [name, start, end, parent, evals, points,
        failed] in gzipped JSON."""
        spans = [
            [self.name[i], self.start[i], self.end[i], self.parent[i],
             self.evals[i], self.points[i], int(self.failed[i])]
            for i in range(len(self.start))
        ]
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump({"names": self.names, "spans": spans}, fh)


def _wrap(tracer, name, fn, counts=None, on_error=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            evals, failed = on_error(err) if on_error else (0, False)
            tracer.close(i, evals, 0, failed)
            raise
        evals, points = counts(args, result) if counts else (0, 0)
        tracer.close(i, evals, points)
        return result
    return wrapper


def _quad_counts(args, result):
    return result.evaluations, 0


def _quad_error(err):
    # A QuadratureError raised inside a nested integral propagates
    # through the enclosing integrate_1d calls; only the call that raised
    # it owns the evaluations in ``err.best``.
    if type(err).__name__ != "QuadratureError" \
            or getattr(err, "_traced", False):
        return 0, False
    err._traced = True
    best = getattr(err, "best", None)
    return (best.evaluations if best is not None else 0), True


def _profile_counts(args, result):
    ts = args[0]
    points = len(ts) if hasattr(ts, "__len__") else 1
    return result[2], points


def _observable_counts(args, result):
    return result.evaluations, 0


# (span name, counts, on_error, [(module, attribute), ...]): every place a
# caller looks the traced function up.
_PATCHES = [
    ("core.commutator", _profile_counts, None,
     [("qcc._core", "inner_commutator_profile")]),
    ("core.field", _profile_counts, None,
     [("qcc._core", "inner_field_profile")]),
    ("quadrature.integrate_1d", _quad_counts, _quad_error,
     [("qcc.signalling", "integrate_1d"),
      ("qcc._core._kernels_py", "integrate_1d"),
      ("qcc.validation", "integrate_1d")]),
    ("signalling.s2", _observable_counts, None,
     [("qcc.signalling", "s2_observable"), ("qcc.channel", "s2_observable")]),
    ("signalling.hI", _observable_counts, None,
     [("qcc.signalling", "interaction_energy_observable")]),
    ("signalling.hf", _observable_counts, None,
     [("qcc.signalling", "field_energy_observable")]),
    ("greens.regularized_momentum_integral", None, None,
     [("qcc.greens", "regularized_momentum_integral")]),
    ("config.load_config", None, None,
     [("qcc.config", "load_config"), ("qcc.cli", "load_config")]),
    ("scenario.validate", None, None,
     [("qcc.scenario", "validate"), ("qcc.cli", "validate")]),
    ("cli.compute_row", None, None,
     [("qcc.cli", "compute_row")]),
    ("channel.capacity_closed", None, None,
     [("qcc.channel", "capacity_closed")]),
    ("channel.capacity_bruteforce", None, None,
     [("qcc.channel", "capacity_bruteforce")]),
    ("channel.channel_stats", None, None,
     [("qcc.channel", "channel_stats"), ("qcc.cli", "channel_stats")]),
]


def _check_name(fn):
    # the name run_all_checks reports for a check that raised
    return fn.__name__.replace("_check_", "", 1).replace("_", "-")


def _wrap_check(tracer, fn):
    @functools.wraps(fn)
    def wrapper():
        i = tracer.open("validation." + _check_name(fn))
        try:
            result = fn()
        except BaseException:
            tracer.close(i)
            raise
        tracer.close(i, name="validation." + result.name)
        return result
    return wrapper


def install(tracer):
    """Wrap every traced function; returns a function that restores them."""
    undo = []
    for span, counts, on_error, places in _PATCHES:
        for module_name, attr in places:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, _wrap(tracer, span, original, counts,
                                        on_error))
            undo.append((module, attr, original))
    try:
        validation = importlib.import_module("qcc.validation")
    except ImportError:
        validation = None
    checks = getattr(validation, "_CHECKS", None)
    originals = list(checks) if checks is not None else None
    if checks is not None:
        checks[:] = [_wrap_check(tracer, fn) for fn in originals]

    def uninstall():
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)
        if checks is not None:
            checks[:] = originals
    return uninstall
