"""Process that imports qcc and does the benchmark's in-process work.

    python perfbench/worker.py reference SPEC OUT
    python perfbench/worker.py measure SPEC OUT
    python perfbench/worker.py cli SPANS -- QCC_ARGS...

``reference`` computes the expected output of every op of a workload at
a tight tolerance plus the 2D-oracle spot checks.  ``measure`` runs the
ops in a closed loop (one op at a time) and records each op's latency
and output; with tracing on it runs one untraced and one traced pass.
``cli`` runs one ``qcc`` command line with tracing on and stores its
spans.  SPEC and OUT are JSON files written and read by ``run.py``; the
program under test is the ``qcc`` package on ``PYTHONPATH``.
"""

import cmath
import contextlib
import io
import json
import math
import os
import platform
import sys
import time

import numpy
import scipy

import qcc
import qcc.cli as cli
from qcc import signalling
from qcc.config import load_config
from qcc.greens import KernelDomainError, commutator_kernel
from qcc.quadrature import (QuadratureError, default_tolerance,
                            integrate_2d_rect)

import calib
import tracing
from run import run_passes, timed


def environment():
    return {
        "backend": getattr(qcc, "backend_name", "none"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "QCC_QUAD_TOL": os.environ.get("QCC_QUAD_TOL", "unset"),
        "tol": default_tolerance(),
    }


def sweep_tasks(req, tol):
    """The (scenario, value, eval_time, tol) tasks ``qcc sweep`` builds,
    through the names ``qcc.cli`` calls (so the tracer sees them)."""
    cfg = cli.load_config(req["config"])
    cli.require_valid(cfg.scenario)
    start, stop, step = req["range"]
    spec = cli.SweepSpec(req["param"], start, stop, step, None)
    return [(cli.apply_sweep_parameter(cfg.scenario, req["param"], v), v,
             None, tol) for v in spec.grid()]


def sweep_argv(req, out, jobs):
    start, stop, step = req["range"]
    return ["sweep", req["config"], "--param", req["param"],
            "--range", f"{start!r}:{stop!r}:{step!r}", "--out", out,
            "--jobs", str(jobs)]


def reference_row(scenario, value, ladder):
    """Row at the first tolerance of the ladder whose quadratures all
    converge (the tightest ones can stall on the roundoff floor)."""
    for tol in ladder:
        row = cli.compute_row(scenario, value, None, tol)
        if "numerical:" not in row.status:
            break
    return row.to_csv()


def reference_stats(cfg, tol):
    stats = cli.channel_stats(cfg.scenario, cfg.lambda_product, cfg.noise_R,
                              tol=tol)
    return {k: getattr(stats, k) for k in (
        "p", "q", "success", "capacity_closed", "capacity_expansion",
        "capacity_bruteforce")}


def oracle_s2(s, tol):
    """S2 as a plain double integral on the generic 2D integrator; it
    shares no code with the inner-profile route."""
    L = math.dist(s.alice.position, s.bob.position)
    c_b = s.bob.state.alpha.conjugate() * s.bob.state.beta
    c_a = s.alice.state.alpha.conjugate() * s.alice.state.beta

    def f(t2, t1):
        try:
            d = commutator_kernel(s.dimension, t2 - t1, L).value
        except KernelDomainError:
            # a node that rounding put exactly on the lightcone, where the
            # integrable 1/sqrt singularity has no finite value
            return 0.0
        if d == 0.0:
            return 0.0
        im_b = (c_b * cmath.exp(1j * s.bob.gap * t2)).imag
        bias_a = (c_a * cmath.exp(1j * s.alice.gap * t1)).real
        return -4.0 * im_b * bias_a * d

    res = integrate_2d_rect(
        f, (s.bob.window.t_on, s.bob.window.t_off),
        (s.alice.window.t_on, s.alice.window.t_off), tol,
        singular_line=L,
        max_panel_width=2 * math.pi / max(s.alice.gap, s.bob.gap))
    return res.value


def oracle_s2_ladder(s, tols):
    """(value, tol) of oracle_s2 at the first tolerance that converges, or
    (None, None).  The oracle's scalar inner integrals can exhaust their
    budget at the tightest tolerance; each step is 10x looser."""
    for tol in tols:
        try:
            return oracle_s2(s, tol), tol
        except QuadratureError:
            continue
    return None, None


def do_reference(spec):
    ladder = spec["tol_ladder"]
    kind = spec["kind"]
    demo = load_config(spec["anchor"]).scenario
    out = {"env": environment(), "rows": [], "stats": [], "oracle": [],
           "anchor_s2_evals": signalling.s2_observable(
               demo, None, default_tolerance()).evaluations}
    scenarios = {}
    for r, req in enumerate(spec["requests"]):
        if kind == "sweep":
            tasks = sweep_tasks(req, None)
            out["rows"].append([reference_row(t[0], t[1], ladder)
                                for t in tasks])
            for j, t in enumerate(tasks):
                scenarios[(r, j)] = t[0]
        elif kind in ("rows", "cli"):
            # a long-window row is what `qcc point` computes before the
            # channel figures
            cfg = load_config(req["config"])
            s = cfg.scenario
            scenarios[(r, 0)] = s
            row = ""
            if req.get("argv", ["point"])[0] == "point":
                row = reference_row(s, s.bob.window.t_on, ladder)
            out["rows"].append([row])
            if kind == "cli":
                out["stats"].append(None if "numerical:" in row
                                    else reference_stats(cfg, ladder[0]))
    for r, j in spec["oracle"]:
        value, tol = oracle_s2_ladder(scenarios[(r, j)], spec["oracle_tols"])
        if value is not None:
            out["oracle"].append([r, j, value, tol])
    if spec.get("crossing"):
        s = load_config(spec["crossing"]).scenario
        obs = signalling.s2_observable(s, None, default_tolerance())
        value, tol = oracle_s2_ladder(s, spec["oracle_tols"])
        if value is not None:
            out["crossing"] = [obs.value, obs.quad_error, value, tol]
    if spec.get("probe"):
        cfg = load_config(spec["probe"])
        out["probe"] = reference_row(cfg.scenario,
                                     cfg.scenario.bob.window.t_on, ladder)
    return out


# --- measurement -------------------------------------------------------


class Passes:
    """One workload's op list, run pass after pass in a closed loop.  Each
    op is recorded as [pass, request, row, ms, output]."""

    def __init__(self, spec):
        self.spec = spec
        self.kind = spec["kind"]
        self.ops = []
        self.done = 0

    def run_pass(self, tracer=None):
        getattr(self, "_pass_" + self.kind)(tracer)
        self.done += 1

    def _record(self, r, j, ms, output):
        self.ops.append([self.done, r, j, ms, output])

    @contextlib.contextmanager
    def _op(self, tracer):
        i = tracer.open("bench.op") if tracer else None
        try:
            yield
        finally:
            if tracer:
                tracer.close(i)

    def _pass_sweep(self, tracer):
        tol = default_tolerance()
        for r, req in enumerate(self.spec["requests"]):
            with self._op(tracer):
                tasks = sweep_tasks(req, tol)
            for j, task in enumerate(tasks):
                with self._op(tracer):
                    t0 = calib.clock()
                    row = cli.compute_row(*task)
                    ms = 1e3 * (calib.clock() - t0)
                self._record(r, j, ms, row.to_csv())

    def _pass_rows(self, tracer):
        for r, req in enumerate(self.spec["requests"]):
            with self._op(tracer):
                s = cli.load_config(req["config"]).scenario
                t0 = calib.clock()
                row = cli.compute_row(s, s.bob.window.t_on, None,
                                      default_tolerance())
                ms = 1e3 * (calib.clock() - t0)
            self._record(r, 0, ms, row.to_csv())

    def _pass_validate(self, tracer):
        buf = io.StringIO()
        with self._op(tracer):
            with contextlib.redirect_stdout(buf):
                t0 = calib.clock()
                rc = cli.main(["validate"])
                ms = 1e3 * (calib.clock() - t0)
        self._record(0, 0, ms, [rc, buf.getvalue()])


def jobs_sweep(spec, r):
    """``qcc sweep --jobs N`` for request r: [ms, exit code, CSV text]."""
    path = os.path.join(spec["out_dir"], f"jobs-{r}.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(sweep_argv(spec["requests"][r], path, spec["jobs"]))
        ms = 1e3 * (time.perf_counter() - t0)
    with open(path, encoding="ascii") as fh:
        return [ms, rc, fh.read()]


def do_measure(spec):
    passes = Passes(spec)
    out = {}
    if spec["trace"]:
        tracer = tracing.Tracer()

        def traced_pass():
            uninstall = tracing.install(tracer)
            try:
                passes.run_pass(tracer)
            finally:
                uninstall()
        out["pass_s"] = [timed(passes.run_pass), timed(traced_pass)]
        tracer.write(spec["spans"])
        out["layers"] = tracer.summary()
    else:
        calib.start()
        try:
            out["pass_s"] = run_passes(passes.run_pass, spec["seconds"])
        finally:
            calib.stop()
        calib.sample()
        out["cal"] = calib.samples()
    if spec["kind"] == "sweep":
        out["jobs"] = [jobs_sweep(spec, r)
                       for r in range(len(spec["requests"]))]
    if spec.get("probe"):
        s = load_config(spec["probe"]).scenario
        t0 = time.perf_counter()
        row = cli.compute_row(s, s.bob.window.t_on, None, default_tolerance())
        out["probe"] = [1e3 * (time.perf_counter() - t0), row.to_csv()]
    out["ops"] = passes.ops
    return out


def do_cli(spans_path, argv):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(spans_path)
        with open(spans_path + ".summary.json", "w", encoding="ascii") as fh:
            json.dump(tracer.summary(), fh)


def main(argv):
    mode = argv[0]
    if mode == "cli":
        return do_cli(argv[1], argv[3:])
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = do_reference(spec) if mode == "reference" else do_measure(spec)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
