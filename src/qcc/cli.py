"""Batch front end: single-point runs, parameter sweeps, capacity, validation.

The CSV emitted by ``sweep`` is the plotting contract: fixed column
order, 17 significant digits, LF line endings, byte-identical across
runs for the same config.  Grid points that produce an invalid scenario
or a rejected observable become rows with a status annotation instead of
aborting the sweep.

Exit codes: 0 ok, 1 config error, 2 numerical failure, 3 validation
suite failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .channel import ChannelStats, channel_stats
from .config import load_config
from .quadrature import DEFAULT_TOL, QuadratureError, default_tolerance
from .scenario import (
    Scenario,
    SwitchingWindow,
    require_valid,
    validate,
)
from . import signalling

__all__ = [
    "SweepSpec",
    "Row",
    "CSV_HEADER",
    "compute_row",
    "run_point",
    "run_sweep",
    "run_capacity",
    "run_validate",
    "main",
]

CSV_HEADER = "param,s2,hB_sig,hI_on,hI_off,hf_sig,quad_error,status"
SWEEP_PARAMETERS = ("bob_t_on", "separation_L", "gap_B")
MAX_GRID_POINTS = 10**6

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VALIDATION = 3


def _fmt(x: float) -> str:
    """A number as the CSV and the reports print it: 17 significant
    digits, enough to parse back to the same float."""
    return "%.17g" % x


@dataclass(frozen=True)
class SweepSpec:
    """Grid over one scenario parameter.

    eval_time None means "evaluate at each point's own T2"; a float
    pins a common lab-frame evaluation time for every row.
    """

    parameter: str
    start: float
    stop: float
    step: float
    eval_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"choose from {', '.join(SWEEP_PARAMETERS)}"
            )
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"sweep step must be > 0, got {self.step!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)
                and self.start < self.stop):
            raise ValueError(
                f"sweep needs start < stop, got {self.start!r}:{self.stop!r}"
            )
        if self.parameter == "separation_L" and self.start < 0.0:
            # a negative value would move Bob to the mirror point at -L
            raise ValueError(
                f"separation_L sweep needs start >= 0, got {self.start!r}")
        if (self.stop - self.start) / self.step > MAX_GRID_POINTS:
            raise ValueError(
                f"sweep grid exceeds {MAX_GRID_POINTS} points; "
                "increase step or shrink the range"
            )

    def grid(self) -> List[float]:
        """Ascending grid start, start+step, ... including stop when it
        lands on the lattice (within a small relative slack)."""
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + i * self.step for i in range(n)]


def apply_sweep_parameter(s: Scenario, parameter: str, value: float) -> Scenario:
    """New scenario with one parameter replaced; the base is untouched."""
    if parameter == "bob_t_on":
        window = SwitchingWindow(value, value + s.bob.window.duration)
        return replace(s, bob=replace(s.bob, window=window))
    if parameter == "separation_L":
        a = s.alice.position
        b = s.bob.position
        delta = [bi - ai for ai, bi in zip(a, b)]
        norm = math.hypot(*delta)
        if norm == 0.0:
            # coincident detectors carry no direction; displace along x
            delta = [1.0] + [0.0] * (len(a) - 1)
            norm = 1.0
        position = tuple(ai + value * di / norm for ai, di in zip(a, delta))
        return replace(s, bob=replace(s.bob, position=position))
    if parameter == "gap_B":
        return replace(s, bob=replace(s.bob, gap=value))
    raise ValueError(f"unknown sweep parameter {parameter!r}")


@dataclass(frozen=True)
class Row:
    """One CSV row; nan marks a column whose observable was not computed.

    ``failures`` is not part of the CSV: it holds one "<obs>: <reason>:
    <message>" line per observable tagged ``numerical:<obs>``.
    """

    param: float
    s2: float
    hB_sig: float
    hI_on: float
    hI_off: float
    hf_sig: float
    quad_error: float
    status: str
    failures: Tuple[str, ...] = ()

    def to_csv(self) -> str:
        return ",".join(
            [_fmt(self.param), _fmt(self.s2), _fmt(self.hB_sig),
             _fmt(self.hI_on), _fmt(self.hI_off), _fmt(self.hf_sig),
             _fmt(self.quad_error), self.status]
        )


def compute_row(
    s: Scenario,
    param_value: float,
    eval_time: Optional[float] = None,
    tol: float = DEFAULT_TOL,
) -> Row:
    """Evaluate all signalling columns for one scenario.

    Shared by run_point and run_sweep so a sweep row and a single-point
    run of the same scenario agree bit for bit.  The values come from
    :func:`signalling.row_observables`, which also picks the times they
    are evaluated at.  Observables that reject the configuration (domain
    errors) or fail to converge show up as nan plus a status tag; the
    rest of the row is still filled in.  A row with a ``numerical:`` tag
    has no error bound, so its ``quad_error`` is nan.
    """
    report = validate(s)
    if not report.ok:
        nan = math.nan
        return Row(param_value, nan, nan, nan, nan, nan, nan,
                   "invalid-scenario")

    obs = signalling.row_observables(s, eval_time, tol)
    failed = [(label, o.failure) for label, o in zip(
        ("s2", "hI_on", "hI_off", "hf_sig"), obs) if o.failure is not None]
    # a ValueError is an InvalidScenarioError or an out-of-window time
    tags = [("numerical:" if isinstance(exc, QuadratureError)
             else "rejected:") + label for label, exc in failed]
    failures = tuple(f"{label}: {exc.reason}: {exc}" for label, exc in failed
                     if isinstance(exc, QuadratureError))
    s2, hi_on, hi_off, hf = obs
    return Row(param_value, s2.value, s.bob.gap * s2.value, hi_on.value,
               hi_off.value, hf.value, math.nan if failures else sum(
                   (o.quad_error for o in obs if o.failure is None), 0.0),
               ";".join(tags) or "ok", failures)


# --- verbs --------------------------------------------------------------


def run_point(config_path: str) -> int:
    cfg = load_config(config_path)
    s = cfg.scenario
    report = require_valid(s)
    tol = default_tolerance()
    row = compute_row(s, s.bob.window.t_on, None, tol)

    print(f"dimension      : {s.dimension}")
    print(f"separation L   : {_fmt(report.separation)}")
    print(f"causal class   : {report.causal_class.name}")
    print(f"quad tolerance : {_fmt(tol)}")
    print()
    for label, value in (("s2", row.s2), ("hB_sig", row.hB_sig),
                         ("hI_on", row.hI_on), ("hI_off", row.hI_off),
                         ("hf_sig", row.hf_sig),
                         ("quad_error", row.quad_error)):
        print(f"{label:<11}= {_fmt(value)}")
    print(f"{'status':<11}= {row.status}")
    print()
    print(CSV_HEADER)
    print(row.to_csv())

    if row.failures:
        print("quadrature failed to converge for at least one observable",
              file=sys.stderr)
        for line in row.failures:
            print(line, file=sys.stderr)
        return EXIT_NUMERICAL

    # the row's s2 is S2(T2) at tol, unless the row could not compute it
    stats = channel_stats(s, cfg.lambda_product, cfg.noise_R, tol=tol,
                          s2=None if math.isnan(row.s2) else row.s2)
    print()
    print(f"{'lambda_product':<20}= {_fmt(cfg.lambda_product)}")
    print(f"{'noise_R':<20}= {_fmt(cfg.noise_R)}")
    _print_stats(stats)
    return EXIT_OK


def _print_stats(stats: ChannelStats) -> None:
    for label in ("p", "q", "success", "capacity_closed",
                  "capacity_expansion", "capacity_bruteforce"):
        print(f"{label:<20}= {_fmt(getattr(stats, label))}")


def run_sweep(
    config_path: str,
    sweep: SweepSpec,
    out_path: str,
    jobs: int = 1,
) -> int:
    cfg = load_config(config_path)
    require_valid(cfg.scenario)
    tol = default_tolerance()

    values = sweep.grid()
    tasks = [
        (apply_sweep_parameter(cfg.scenario, sweep.parameter, v), v,
         sweep.eval_time, tol)
        for v in values
    ]
    # the pool starts every worker at once
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(compute_row, *zip(*tasks),
                                 chunksize=chunk))
    else:
        rows = [compute_row(*task) for task in tasks]

    text = "\n".join([CSV_HEADER] + [row.to_csv() for row in rows]) + "\n"
    with open(out_path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    print(f"wrote {len(rows)} rows to {out_path}")
    return EXIT_OK


def run_capacity(
    config_path: str,
    lambda_product: Optional[float] = None,
    noise_R: Optional[float] = None,
) -> int:
    cfg = load_config(config_path)
    require_valid(cfg.scenario)
    lam = cfg.lambda_product if lambda_product is None else lambda_product
    noise = cfg.noise_R if noise_R is None else noise_R
    stats = channel_stats(cfg.scenario, lam, noise, tol=default_tolerance())
    print(f"{'lambda_product':<20}= {_fmt(lam)}")
    print(f"{'noise_R':<20}= {_fmt(noise)}")
    _print_stats(stats)
    return EXIT_OK


def run_validate() -> int:
    from .validation import format_report, run_all_checks

    results = run_all_checks()
    print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


# --- argument handling --------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our 2 means numerical failure,
    so remap bad usage onto the config-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _range_triple(text: str) -> Tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"range must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range fields must be numbers, got {text!r}") from None
    return start, stop, step


def _checked(kind, ok, what):
    """argparse type: ``kind(text)``, rejected unless ``ok`` holds for it."""
    def parse(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


def _eval_time(text: str) -> Optional[float]:
    if text == "at_T2":
        return None
    return _checked(float, math.isfinite,
                    "'at_T2' or a finite number")(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcc",
        description="Quantum channel signalling between switched detectors: "
                    "single evaluations, parameter sweeps, channel capacity, "
                    "and the library's invariant suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one config, print all "
                                           "observables and channel stats")
    p_point.add_argument("config", help="path to key = value config file")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter, write CSV")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMETERS)
    p_sweep.add_argument("--range", required=True, type=_range_triple,
                         metavar="START:STOP:STEP", dest="range_spec")
    p_sweep.add_argument("--eval-time", type=_eval_time, default=None,
                         metavar="at_T2|T",
                         help="evaluation time per row (default: each row's "
                              "own T2)")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--jobs", default=1,
                         type=_checked(int, lambda n: n >= 1,
                                       "a positive integer"),
                         help="worker processes (default 1: serial)")

    p_cap = sub.add_parser("capacity", help="channel capacity for one config")
    p_cap.add_argument("config")
    finite = _checked(float, math.isfinite, "a finite number")
    p_cap.add_argument("--lambda-product", type=finite, default=None,
                       dest="lambda_product",
                       help="override lambda_product from the config")
    p_cap.add_argument("--noise-R", type=finite, default=None, dest="noise_R",
                       help="override noise_R from the config")

    sub.add_parser("validate", help="run the built-in invariant suite")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "point":
            return run_point(args.config)
        if args.command == "sweep":
            start, stop, step = args.range_spec
            sweep = SweepSpec(args.param, start, stop, step, args.eval_time)
            return run_sweep(args.config, sweep, args.out, jobs=args.jobs)
        if args.command == "capacity":
            return run_capacity(args.config, args.lambda_product, args.noise_R)
        if args.command == "validate":
            return run_validate()
        raise AssertionError(f"unhandled command {args.command!r}")
    except QuadratureError as err:
        print(f"qcc: numerical failure: {err.reason}: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as err:
        # ConfigError and InvalidScenarioError are ValueErrors
        print(f"qcc: error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    # `validate` imports qcc.cli: let it find this module, not a copy
    sys.modules.setdefault("qcc.cli", sys.modules[__name__])
    raise SystemExit(main())
