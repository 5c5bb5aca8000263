"""Adaptive quadrature with explicit error control.

Provides the 1D integrator behind the signalling calculations and a 2D
integrator, :func:`integrate_2d_rect`, that is the reference oracle for
the tests and the benchmark (signalling does not use it).  The workhorse
is a Gauss-Kronrod 7/15 pair applied over a panel list with
greedy refinement of the worst panel.  The rule expects smooth
integrands: a caller substitutes an integrable endpoint singularity away
first, as the 2+1D lag integrals in :mod:`qcc.signalling` do on the cone.

Refinement stops at the roundoff floor (QUADPACK's roundoff detection,
Piessens et al. 1983): a panel whose 15- and 7-point rules already agree
to within 50*eps*resabs is frozen, since bisecting it cannot lower its
error.  Once the frozen panels alone carry more error than the tolerance,
the integral fails at once with reason "roundoff" instead of spending
its evaluation budget.

Several integrands over several intervals can share one evaluation of
their initial panellings and one application of the rule, for all of
them at once, over all of their panels (:func:`_integrate_shared`,
which lays each interval out once: its edges, or its refusal on the
budget, and the span of its panels among all of them).  Each integrand
is then refined on each interval on its own, to its own tolerance, by
an iterator that takes the next interval only when the caller asks for
its result.  So the caller decides what a failure means: a lag pass
stops an integrand at its first failed piece, while a family of
independent integrals (the validation suite's honesty cases, the F
oracle's damping levels) takes every result, failures included.  An
interval whose initial panelling already meets the tolerance, as the
rows' intervals almost always do, is settled there, in one place: the
exact sum of its panels' errors, read from one list of the rule per
pass, meets its tolerance, and its panels' values are summed the same
way.  Only the other intervals reach the refinement loop
(:func:`_adaptive`).

For highly oscillatory integrals int_a^b g(t) e^{i omega t} dt with g
analytic above the interval, :func:`_steepest_descent` replaces the
panels by numerical steepest descent (Huybrechs & Vandewalle, SIAM J.
Numer. Anal. 44 (2006) 1026): the path t = x + i p / omega from each
end turns the oscillation into the Laguerre weight e^{-p}, so the cost
does not grow with omega (b - a).  The caller decides which integrals
qualify and falls back to the panels when its error estimate is too
large.

Everything here is deterministic: fixed node sets, a refinement order
whose ties break by insertion, and correctly rounded sums (``math.fsum``)
of the final panel values and errors, which no panel order can change.
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "QuadResult",
    "QuadratureError",
    "integrate_1d",
    "integrate_2d_rect",
    "DEFAULT_TOL",
    "default_tolerance",
]

# Nodes/weights of the 7-point Gauss, 15-point Kronrod pair on [-1, 1]
# (QUADPACK's dqk15 abscissae).  xgk holds the positive Kronrod points in
# decreasing order; even indices are Kronrod-only, odd indices are the
# embedded Gauss points.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full 15-node layout: [-x0 .. -x6, 0, x6 .. x0].
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_WK = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WGAUSS = np.zeros(15)
for _i, _w in zip((1, 3, 5), _WG[:3]):
    _WGAUSS[_i] = _w
    _WGAUSS[14 - _i] = _w
_WGAUSS[7] = _WG[3]
# Both rules' weights, stacked: one product and one sum give k15 and g7.
_WKG = np.stack([_WK, _WGAUSS])

_EPS = np.finfo(float).eps
# A rule's roundoff floor is _FLOOR * resabs (QUADPACK's 50*eps*resabs).
_FLOOR = 50.0 * float(_EPS)
_DEFAULT_BUDGET = 1_000_000

# Nodes and weights of the 16- and 24-point Gauss-Laguerre rules on
# [0, inf) with weight e^{-p}: numpy.polynomial.laguerre.laggauss(16)
# and laggauss(24), to the last bit.  The steepest-descent rule takes its
# value from the 24-point rule and its error estimate from their
# difference.
_LAGUERRE_X16 = np.array([
    0.08764941047892776, 0.4626963289150804, 1.1410577748312265,
    2.1292836450983805, 3.4370866338932067, 5.078018614549768,
    7.070338535048234, 9.438314336391938, 12.21422336886616,
    15.441527368781617, 19.180156856753136, 23.515905693991908,
    28.57872974288214, 34.58339870228662, 41.94045264768833,
    51.70116033954332,
])
_LAGUERRE_W16 = np.array([
    0.2061517149578049, 0.3310578549508783, 0.2657957776442144,
    0.13629693429637874, 0.04732892869412563, 0.011299900080339598,
    0.0018490709435263271, 0.0002042719153082809, 1.4844586873981502e-05,
    6.828319330871331e-07, 1.8810248410797222e-08, 2.862350242973897e-10,
    2.1270790332241214e-12, 6.29796700251788e-15, 5.050473700035608e-18,
    4.161462370372851e-22,
])
_LAGUERRE_X24 = np.array([
    0.05901985218150761, 0.3112391461984835, 0.7660969055459361,
    1.4255975908036125, 2.2925620586321904, 3.3707742642089986,
    4.66508370346717, 6.181535118736765, 7.927539247172152,
    9.912098015077705, 12.146102711729764, 14.642732289596674,
    17.417992646508978, 20.491460082616424, 23.887329848169735,
    27.635937174332717, 31.776041352374722, 36.35840580165162,
    41.45172048487077, 47.153106445156325, 53.60857454469507,
    61.05853144721876, 69.96224003510503, 81.49827923394889,
])
_LAGUERRE_W24 = np.array([
    0.14281197333475043, 0.25877410751744107, 0.2588067072728734,
    0.18332268897778237, 0.09816627262992299, 0.04073247815141022,
    0.013226019405120549, 0.0033693490584784146, 0.0006721625640935707,
    0.00010446121465927847, 1.2544721977993773e-05, 1.151315812737323e-06,
    7.960812959133895e-08, 4.072858987550192e-09, 1.507008226292658e-10,
    3.917736515058548e-12, 6.894181052958382e-14, 7.819800382459628e-16,
    5.350188813010104e-18, 2.0105174645555705e-20, 3.6057658645529064e-23,
    2.451818845878714e-26, 4.08830159368094e-30, 5.575345788327942e-35,
])
# Both rules' nodes, and their weights at the two ends of an interval, in
# the order _steepest_descent lays out its abscissae.
_LAGUERRE_NODES = np.concatenate([_LAGUERRE_X16, _LAGUERRE_X24])
_LAGUERRE_WEIGHTS = np.concatenate([_LAGUERRE_W16, _LAGUERRE_W24] * 2)

TOL_ENV_VAR = "QCC_QUAD_TOL"
DEFAULT_TOL = 1e-8


def default_tolerance() -> float:
    """The CLI's absolute tolerance.

    Reads the ``QCC_QUAD_TOL`` environment variable at call time and falls
    back to :data:`DEFAULT_TOL`; a value that is not a finite positive
    number is a ValueError.
    """
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as err:
        raise ValueError(f"{TOL_ENV_VAR} is not a number: {raw!r}") from err
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(
            f"{TOL_ENV_VAR} must be a finite positive number, got {raw!r}")
    return tol


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one adaptive integration."""

    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be >= 0")
        if self.evaluations <= 0:
            raise ValueError("evaluations must be positive")


class QuadratureError(Exception):
    """Raised when an integral cannot be certified to the requested tolerance.

    ``reason`` says why, as one of :attr:`REASONS`:

    * ``"budget"`` -- the evaluation budget ran out first;
    * ``"roundoff"`` -- the panels that have reached their roundoff floor
      already carry more error than the tolerance allows;
    * ``"non-finite"`` -- the integrand returned nan or inf;
    * ``"unsplittable"`` -- the panels left to refine are too narrow to
      bisect in floating point.

    ``best`` carries the best available estimate (or None when the failure
    happened before any usable value existed, e.g. a non-finite integrand).
    A failure on one part of a larger integral carries None, since the
    part's estimate is not the whole's: an inner integral of
    :func:`integrate_2d_rect`, or a lag piece of a signalling observable.
    ``evaluations`` counts the integrand evaluations spent before the
    failure, with or without a ``best``; an initial panelling refused on
    its budget spends none.
    """

    REASONS = ("budget", "roundoff", "non-finite", "unsplittable")

    def __init__(self, message: str, reason: str,
                 best: Optional[QuadResult] = None, evaluations: int = 0):
        if reason not in self.REASONS:
            raise ValueError(f"unknown quadrature failure reason {reason!r}")
        super().__init__(message)
        self.reason = reason
        self.best = best
        self.evaluations = evaluations


def _panel_nodes(*edges):
    """GK15 nodes of the panels between consecutive edges of each of
    ``edges``, in turn, flattened panel by panel, plus each panel's half
    width."""
    if len(edges) == 1:
        lefts, rights = edges[0][:-1], edges[0][1:]
    else:
        lefts = np.concatenate([e[:-1] for e in edges])
        rights = np.concatenate([e[1:] for e in edges])
    halves = 0.5 * (rights - lefts)
    pts = (0.5 * (lefts + rights))[:, None] + halves[:, None] * _NODES
    return pts.ravel(), halves


def _panel_rules(vals, flat, halves, spent):
    """Apply the GK15 pair to integrand values at the ``flat`` nodes:
    ``vals`` holds one integrand's values, or one row per integrand.

    Returns (k15, err, at_floor) arrays, one entry per panel (per row).
    ``err`` is the Kronrod-Gauss difference, raised to the roundoff floor
    50*eps*resabs; ``at_floor`` marks the panels whose difference is
    already at or below that floor, so that bisecting them cannot lower
    their error.  A row's entries do not depend on the other rows.  A
    nan or inf value fails with reason "non-finite", naming the first
    such node and counting the ``spent`` evaluations.
    """
    rows = np.asarray(vals, dtype=float)
    if rows.shape[-1:] != flat.shape:
        if isinstance(vals, list):  # name the shape of a row at fault
            rows = next(np.asarray(v) for v in vals
                        if np.shape(v) != flat.shape)
        raise ValueError(
            f"integrand returned shape {rows.shape}, expected {flat.shape}")
    vals = rows
    panels = vals.reshape(vals.shape[:-1] + (-1, 15))
    # A nan or inf value makes its panel's resabs nan or inf without a
    # warning, before any sum that could warn on it (inf - inf); the
    # nodes are scanned only then, since finite values can overflow too.
    resabs = halves * (np.abs(panels) * _WK).sum(axis=-1)
    if not math.isfinite(resabs.max()):
        bad = ~np.isfinite(vals)
        if bad.any():
            raise QuadratureError(
                f"integrand returned a non-finite value near "
                f"t={float(flat[np.nonzero(bad)[-1][0]])!r}; an endpoint "
                "singularity must be substituted away first",
                "non-finite", evaluations=spent,
            )
    sums = (panels[..., None, :] * _WKG).sum(axis=-1)
    k15, g7 = halves * sums[..., 0], halves * sums[..., 1]
    diff = np.abs(k15 - g7)
    floor = _FLOOR * resabs
    return k15, np.maximum(diff, floor), diff <= floor


def _initial_edges(a, b, max_panel_width, budget):
    """Edges of the initial panelling of [a, b]: equal panels no wider
    than ``max_panel_width``; fails with reason "budget" when their
    nodes alone would exceed ``budget``.  For n panels the edges are
    ``np.linspace(a, b, n + 1)``, by its own arithmetic."""
    n0 = 1.0  # a float, since the count can be inf
    if max_panel_width is not None and max_panel_width > 0:
        n0 = max(1.0, np.ceil((b - a) / max_panel_width))
    if 15 * n0 > budget:
        raise QuadratureError(
            f"initial panelling needs {15 * n0:.3g} evaluations, "
            f"exceeding the budget of {budget}",
            "budget",
        )
    # linspace has a second branch for a step (b - a) / n0 that rounds to
    # 0; here b - a is k times the smallest subnormal, with k >= n0 since
    # max_panel_width is at least that subnormal, so the step is not 0
    edges = np.arange(n0 + 1.0) * ((b - a) / n0) + a
    edges[-1] = b
    return edges


def _adaptive(f, edges, initial, running_err, tol, budget):
    """Greedy GK15 refinement, down to absolute tolerance ``tol``, of the
    panelling ``edges`` whose (k15, err, at_floor) is ``initial`` and
    whose errors sum exactly to ``running_err``, above ``tol``: a
    panelling that meets ``tol`` is settled by :func:`_integrate_shared`
    and never comes here.

    The panels it may still refine wait on a heap, worst error first;
    the panels it never refines again are kept in a list, their values
    and errors still summed.  These are the panels too narrow to bisect,
    once popped, and the frozen ones: a panel whose Kronrod-Gauss
    difference is at or below its roundoff floor, since its halves would
    carry the same floor.  The frozen error can only grow, so once it
    exceeds ``tol`` the integral fails at once with reason "roundoff".
    ``f`` is vectorized; the initial panels count 15 evaluations each.
    """
    k15, err, at_floor = initial
    evaluations = 15 * len(k15)

    # The panels it may still refine, worst first, as (-err, order, a, b,
    # value), the order breaking ties; and the panels it never refines
    # again, frozen or too narrow to split, as (value, err).
    order = itertools.count()
    heap, done = [], []
    frozen_err = 0.0

    def add(pa, pb, value, perr, frozen):
        nonlocal frozen_err
        if frozen:
            frozen_err += perr
            done.append((value, perr))
        else:
            heapq.heappush(heap, (-perr, next(order), pa, pb, value))

    for panel in zip(edges[:-1], edges[1:], k15, err, at_floor):
        add(*panel)

    def finish():
        return (math.fsum([p[4] for p in heap] + [p[0] for p in done]),
                math.fsum([-p[0] for p in heap] + [p[1] for p in done]))

    def fail(message, reason):
        value, total_err = finish()
        raise QuadratureError(
            f"{message} (error estimate {total_err:.3e} > tol {tol:.3e})",
            reason,
            best=QuadResult(value, total_err, evaluations),
            evaluations=evaluations,
        )

    while True:
        if running_err <= tol:
            value, total_err = finish()
            if total_err <= tol:
                return QuadResult(value, total_err, evaluations)
            running_err = total_err  # running sum had drifted; keep going
        if frozen_err > tol:
            fail(f"tolerance is below roundoff floor: panels at their floor "
                 f"carry error {frozen_err:.3e}", "roundoff")
        if evaluations + 30 > budget:
            fail(f"quadrature budget of {budget} evaluations exhausted",
                 "budget")
        if not heap:
            fail("no panel can be refined further", "unsplittable")
        neg_err, _, pa, pb, pval = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:  # not splittable in floating point
            done.append((pval, -neg_err))
            continue
        flat, halves = _panel_nodes(np.array([pa, mid, pb]))
        evaluations += flat.size
        ck15, cerr, cfloor = _panel_rules(f(flat), flat, halves, evaluations)
        running_err += cerr[0] + cerr[1] + neg_err  # less the popped err
        add(pa, mid, ck15[0], cerr[0], cfloor[0])
        add(mid, pb, ck15[1], cerr[1], cfloor[1])


def _integrate_shared(f, intervals, tols, budget=_DEFAULT_BUDGET):
    """Integrate ``len(tols)`` integrands over each of ``intervals`` on
    one initial node set, integrand i to tolerance ``tols[i]`` on each
    interval it is taken over.

    ``intervals`` lists (a, b, max_panel_width, picks): the initial
    panelling of [a, b], as :func:`integrate_1d` lays it out, and the
    integrands taken over it.  ``f(t, j)`` takes an ndarray of abscissae
    and j, the index of the interval each lies in (an int array like t,
    or the int 0 when there is one interval), and returns a list of
    one value array per integrand; an integrand's values on an interval
    that does not take it are never used.  The initial panellings are
    evaluated here, in one call of ``f``, and the rule is applied to all
    the integrands at once.  Returns, per integrand, an iterator that
    yields one QuadResult or QuadratureError per interval the integrand
    is taken over, in order: each starts from the integrand's row of
    the rule over that interval's initial panels and is refined on its
    own, through ``f(t, j)[i]``, budget-checked and failed as
    :func:`integrate_1d` would, so it is what :func:`integrate_1d` gives
    alone there, failures included.  The rule's values and errors are
    turned into lists once per call.  An interval whose errors' exact
    sum (``math.fsum``) meets the tol is settled from them: the exact
    sum of its values, that error and 15 evaluations per panel, what
    the refinement loop would return.  Only the others are sliced out
    of the rule and refined by :func:`_adaptive`.  An interval is
    refined only when its result is taken, so a caller that stops at a
    failure spends nothing past it.  An interval refused its initial
    panelling on ``budget`` fails having spent nothing.  When some node
    of the pass is not finite, the rule is applied to each interval's
    nodes on their own as its result is taken, so a non-finite failure
    names a node of that interval, and a finite interval is settled by
    the same exact sum.  Arguments are as for :func:`integrate_1d`, and
    are not checked here.
    """
    # per interval: its edges or its refusal, the span [lo, hi) of its
    # panels among all the initial panels, and its integrands
    layout, start = [], 0
    for a, b, width, picks in intervals:
        try:
            edges = _initial_edges(a, b, width, budget)
            stop = start + edges.size - 1
        except QuadratureError as exc:
            edges, stop = exc, start  # refused: no panels
        layout.append((edges, start, stop, picks))
        start = stop
    panelled = [edges for edges, lo, hi, _ in layout if hi > lo]
    if panelled:  # else no interval reads the rule or the nodes below
        flat, halves = _panel_nodes(*panelled)
        owner = 0 if len(layout) == 1 else np.repeat(
            np.arange(len(layout)),
            [15 * (hi - lo) for _, lo, hi, _ in layout])
        vals = f(flat, owner)
        try:
            rules = _panel_rules(vals, flat, halves, flat.size)
            vals = None  # only the panel sums are kept while refining
            # each panel's value and error as floats, to settle from
            k15s, errs = rules[0].tolist(), rules[1].tolist()
        except QuadratureError:  # a node is not finite: judge each
            rules = None         # interval by its own nodes

    def results(i, tol):
        for j, (edges, lo, hi, picks) in enumerate(layout):
            if i not in picks:
                continue
            res = edges
            if hi > lo:
                try:
                    if rules:
                        k15, err = k15s[i][lo:hi], errs[i][lo:hi]
                    else:
                        nodes = slice(15 * lo, 15 * hi)
                        rules_i = _panel_rules(vals[i][nodes], flat[nodes],
                                               halves[lo:hi], 15 * (hi - lo))
                        k15, err = rules_i[0].tolist(), rules_i[1].tolist()
                    # the one acceptance of an initial panelling: its
                    # errors' exact sum, which no panel order can change
                    total_err = math.fsum(err)
                    if total_err <= tol:
                        res = QuadResult(math.fsum(k15), total_err,
                                         15 * (hi - lo))
                    else:
                        res = _adaptive(
                            lambda t, j=j: f(t, j)[i], edges,
                            [r[i, lo:hi] for r in rules] if rules
                            else rules_i, total_err, tol, budget)
                except QuadratureError as exc:
                    res = exc
            yield res
    return [results(i, tol) for i, tol in enumerate(tols)]


def _roundoff_best(res):
    """``res``, one result of :func:`_integrate_shared`, as a QuadResult:
    a roundoff failure gives its best estimate, and any other failure is
    raised."""
    if isinstance(res, QuadratureError):
        if res.reason != "roundoff":
            raise res
        return res.best
    return res


def _steepest_descent(g, omega, a, b):
    """int_a^b g(t)[i] e^{i omega t} dt for each integrand i of ``g``, by
    numerical steepest descent; ``omega`` > 0.

    ``g(z)`` takes an ndarray of complex abscissae and returns one
    complex value array per integrand; each must be analytic on and
    above [a, b] and grow slower than e^{omega Im z}.  The integral is then
    H(a) - H(b), with H(x) = (i / omega) e^{i omega x}
    int_0^inf g(x + i p / omega) e^{-p} dp, done by Gauss-Laguerre at two
    orders.  Returns (values, errors, evaluations): the higher order's
    complex value and the modulus of its difference from the lower
    order's, per integrand, and the number of abscissae each integrand
    was evaluated at.  As for GK15, an error is raised to the roundoff
    floor 50*eps*resabs, with resabs the higher order's sum of
    |weight * value| / omega over both ends: the two orders usually
    agree to below it, and where the rule is exact (a constant g) their
    difference is roundoff alone.  The weights multiply all the
    integrands' values as one array, but each integrand's sums are
    exactly rounded (``math.fsum``) on its own row, so its result does
    not depend on the others.
    """
    p = _LAGUERRE_NODES / omega
    vals = g(np.concatenate([a + 1j * p, b + 1j * p]))
    ends = ((0, 1j * cmath.exp(1j * omega * a) / omega),
            (p.size, -1j * cmath.exp(1j * omega * b) / omega))
    m = _LAGUERRE_X16.size  # each end's abscissae: the low order's m first
    wv = _LAGUERRE_WEIGHTS * np.asarray(vals)
    values, errors = [], []
    for re, im, mag in zip(wv.real.tolist(), wv.imag.tolist(),
                           np.abs(wv).tolist()):
        low = high = 0j
        resabs = 0.0
        for start, scale in ends:
            mid, end = start + m, start + p.size
            low += scale * complex(math.fsum(re[start:mid]),
                                   math.fsum(im[start:mid]))
            high += scale * complex(math.fsum(re[mid:end]),
                                    math.fsum(im[mid:end]))
            resabs += math.fsum(mag[mid:end]) / omega
        values.append(high)
        errors.append(max(abs(high - low), _FLOOR * resabs))
    return values, errors, 2 * p.size


def integrate_1d(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    *,
    max_panel_width: Optional[float] = None,
    budget: int = _DEFAULT_BUDGET,
) -> QuadResult:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Parameters
    ----------
    f : callable
        Array integrand: it takes an ndarray of abscissae and returns an
        ndarray of the same shape (this is what makes large oscillatory
        panellings affordable in pure Python).
    a, b : float
        Integration limits, a < b.
    tol : float
        Absolute tolerance target.
    max_panel_width : float, optional
        Upper bound on the initial panel width, used to resolve
        oscillations (a quarter period per panel is ample for GK15).
    budget : int
        Maximum number of integrand evaluations before giving up.

    Returns
    -------
    QuadResult

    Raises
    ------
    QuadratureError
        With ``reason`` "budget" when the budget runs out first, "roundoff"
        when ``tol`` is below the roundoff floor (the panels whose 15- and
        7-point rules agree to within 50*eps*resabs, which are never
        bisected again, already carry more than ``tol`` of error),
        "unsplittable" when the panels left are too narrow to bisect, and
        "non-finite" when the integrand returns nan or inf.  All but the
        last carry the best estimate in ``best``.
    ValueError
        On bad limits (not finite, or not a < b) or tolerance, or when
        the integrand returns the wrong shape (a scalar, say).
    """
    if not (a < b and math.isfinite(b - a)):
        raise ValueError(f"require finite a < b, got a={a!r}, b={b!r}")
    _check_tol(tol)
    ((res,),) = _integrate_shared(lambda t, j: [f(t)],
                                  [(a, b, max_panel_width, (0,))], [tol],
                                  budget)
    if isinstance(res, QuadratureError):
        raise res
    return res


def _on_nodes(scalar):
    """The array integrand that calls ``scalar`` node by node."""
    return lambda t: np.fromiter(map(scalar, t), dtype=float, count=t.size)


def _inner_pieces(x, ay, by, L):
    """Split the inner range at the lines y = x - L and y = x + L.

    Yields (side, lo, hi): side +1 for pieces above y = x + L, -1 for
    pieces below y = x - L (the timelike sides, where the integrand may
    carry an inverse-square-root edge singularity), 0 for the rest; with
    ``L`` None the whole range is one plain piece.
    """
    if L is None:
        yield 0, ay, by
        return
    cuts = sorted({ay, by} | {c for c in (x - L, x + L) if ay < c < by})
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        rel = 0.5 * (lo + hi) - x
        yield (1 if rel > L else -1 if rel < -L else 0), lo, hi


def integrate_2d_rect(
    f: Callable,
    x_range: Sequence[float],
    y_range: Sequence[float],
    tol: float,
    *,
    singular_line: Optional[float] = None,
    max_panel_width: Optional[float] = None,
    budget: int = _DEFAULT_BUDGET,
) -> QuadResult:
    """Integrate ``f(x, y)`` over a rectangle by iterated adaptive quadrature.

    Parameters
    ----------
    f : callable
        Scalar integrand f(x, y), called one point at a time.
    x_range, y_range : (float, float)
        Rectangle edges, each as (low, high).
    singular_line : float, optional
        When set to L, the inner (y) integral is split along |y - x| = L
        and the timelike sides |y - x| > L are mapped through
        u = sqrt((y - x)^2 - L^2), which absorbs an inverse-square-root
        edge singularity of the integrand.  Must be declared whenever the
        line crosses the rectangle and f is singular (or discontinuous)
        across it.
    tol, max_panel_width :
        As in :func:`integrate_1d`; the tolerance is apportioned between
        the outer rule and the inner integrals.
    budget : int
        Maximum number of evaluations of ``f``, summed over all inner
        integrals (the count returned).  The outer integral over x is an
        :func:`integrate_1d` call whose points are not counted.

    Raises
    ------
    QuadratureError
        When an inner integral fails (its ``reason`` is kept) or the
        budget is spent, with ``best`` None: an inner estimate at one x
        is not an estimate of the 2D integral.  A failure of the outer
        integral over x is raised as :func:`integrate_1d` raises it.
    ValueError
        On a degenerate or unbounded rectangle, a non-positive
        ``singular_line`` or a non-positive tolerance.

    Notes
    -----
    The reported error estimate is the outer rule's estimate plus the
    worst inner estimate scaled by the outer span, which is conservative
    for well-behaved integrands.
    """
    ax, bx = map(float, x_range)
    ay, by = map(float, y_range)
    if not (ax < bx and ay < by
            and math.isfinite(bx - ax) and math.isfinite(by - ay)):
        raise ValueError("degenerate or unbounded rectangle")
    L = singular_line
    if L is not None and L <= 0:
        raise ValueError("singular_line must be a positive separation")

    span_x = bx - ax
    # Outer rule gets half the tolerance; inner integrals get the rest,
    # diluted by the outer span and a safety factor of 4.
    inner_tol = tol / (8.0 * span_x)
    spent = 0
    worst_inner = 0.0

    def inner(x):
        nonlocal spent, worst_inner
        pieces = list(_inner_pieces(x, ay, by, L))
        total = err_here = 0.0
        for side, lo, hi in pieces:
            if side:
                # y = x + side sqrt(u^2 + L^2), dy = u du / sqrt(u^2 + L^2);
                # u runs from the piece's end nearest the line to its far end
                near, far = (lo, hi) if side > 0 else (hi, lo)
                g_lo = math.sqrt(max((near - x) ** 2 - L * L, 0.0))
                g_hi = math.sqrt(max((far - x) ** 2 - L * L, 0.0))
                width = None

                def g(u):
                    r = math.sqrt(u * u + L * L)
                    return f(x, x + side * r) * u / r
            else:
                g, g_lo, g_hi = (lambda y: f(x, y)), lo, hi
                width = max_panel_width
            if g_hi <= g_lo:
                continue
            try:
                res = integrate_1d(
                    _on_nodes(g), g_lo, g_hi, inner_tol / len(pieces),
                    max_panel_width=width, budget=budget - spent,
                )
            except QuadratureError as err:
                raise QuadratureError(
                    f"inner integral at x={x!r} over y in [{lo!r}, {hi!r}] "
                    f"failed: {err}", err.reason,
                    evaluations=spent + err.evaluations,
                ) from err
            spent += res.evaluations
            err_here += res.abs_error_estimate
            total += res.value
        worst_inner = max(worst_inner, err_here)
        return total

    # the outer rule checks tol > 0 before its first inner integral
    outer = integrate_1d(_on_nodes(inner), ax, bx, 0.5 * tol,
                         max_panel_width=max_panel_width, budget=10 ** 9)
    err = outer.abs_error_estimate + span_x * worst_inner
    return QuadResult(outer.value, err, spent)
