"""Leading-order signalling observables for a two-detector scenario.

Everything here is the O(lambda_A lambda_B) cross term: the shift S2 in
Bob's excitation probability sourced by Alice's coupling, the matching
signalling parts of the detector, interaction and field energies, and the
energy-balance identity tying them together, all divided by
lambda_A lambda_B.

One rule, :func:`_route`, decides every route that is not quadrature,
for s2, hf_sig and hI alike, from the range [lo, hi] of the lags
t2 - t1 over the integral's own region, which the cone meets when
lo <= L <= hi (:func:`qcc.scenario._classify`, the test that classifies
the whole windows too).  There F, whose on-cone part is unspecified, is
rejected in every dimension, and so is D's 3+1D delta where L is lo or
hi: a switching edge, whose convention would decide its value.  So is
hI in 2+1D at L = 0 where its lags start at 0: D = 1/(2 pi tau) there,
and Alice's bias does not vanish at tau = 0.  The same holds where they
start at or before an L whose square is subnormal, where D's radicand
underflows next to the cone.  Otherwise a region with no lag
past the cone is an exact zero, decided there and nowhere else, and one
whose lags pass it by less than their rounding fails with reason
"roundoff".  1+1D D takes its closed form, a kernel that vanishes off
the cone gives 0, and 2+1D, and 3+1D D where lo < L < hi, take the lag
pass below.  Every lag is >= 0: Alice switches off before Bob switches
on, and hI is only taken inside Bob's window.

In 1+1D each observable is a closed form, its only route: D is the
constant 1/2 beyond the cone and F lives on the cone.  Each reports a
rounding bound as its error, fails with reason "roundoff" when that
bound exceeds tol, and costs no evaluations.

Elsewhere each double integral over the two windows is one integral
int dtau K(tau) C(tau) over the lag tau = t2 - t1, with C the windowed
cross-correlation of the two detector sinusoids, in closed form.  Its
kinks and the lightcone tau = L are the breakpoints of one adaptive
quadrature in tau, which is also the 1+1D closed forms' oracle.  The
interaction energy at a time t is the same integral with Alice's bias
at t - tau as the weight, and the 3+1D on-cone delta reduces either to
its weight at tau = L.  D and F are :mod:`qcc.greens`'; this module
holds no closed form of either.  :func:`row_observables` computes a
whole row, s2, the field energy and the interaction energy at both ends
of Bob's window, in one lag integration.  hI's lag ranges end on s2's
cuts, so its pieces are mostly s2's, and where the weights' top
frequencies agree (Alice's gap at least Bob's) they share those pieces'
panels.  Each weight and each kernel is evaluated once on the initial
nodes of the pieces, then each integrand is refined, budget-checked and
failed piece by piece on its own, so each gets exactly what its own
public route returns.

Each lag piece takes one of four routes, decided once where the piece
is planned (:class:`_Piece`).  ``delta`` is the 3+1D pass's one piece
[L, L], c W(L) with c = -1/(4 pi L), whose error is a rounding bound,
as the 1+1D closed forms report theirs.  ``gk`` lays a piece out on GK
panels a quarter period of its weight's top frequency wide, which costs
O(Om T) evaluations.  ``gk-cone``, for a 2+1D piece that starts on the
cone where the kernels have their 1/sqrt edge, lays the same panels
over u = sqrt(tau - L).  Where a cone piece past its first two periods
spans _STEEPEST_DESCENT_PERIODS, that rest is a piece of its own, so the
cone costs no more as Om T grows.  ``steepest-descent`` takes any other
2+1D piece that spans at least _STEEPEST_DESCENT_PERIODS periods: on a
piece the weight is exactly a finite sum of exponentials
sum_j P_j(tau) e^{i om_j tau}, and the kernels continue analytically
into the upper half-plane, so each high-frequency group of terms is
integrated by numerical steepest descent at a cost independent of
om_j, every pick of the pass in one application of the rule.  The
slowly varying rest joins the row's one lag pass, over the piece at
half its share of tol, in the GK batch of the rest's top frequency, so
:func:`_lag_integrals` is the one place that lays a lag integral out on
GK panels, and a rest shares its panels with any pass over the same
piece at that frequency.  A pick whose rest fails or whose estimate
misses its share of tol is handed back: it is redone on GK panels in a
second batch, run only then, so a failure there is the GK route's
failure.  Where 2 (Om_A + Om_B) times the largest |time| overflows,
the exponentials cannot be formed, and every piece stays on ``gk``; a
closed form there reports an infinite rounding bound.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import greens
from .quadrature import (DEFAULT_TOL, QuadratureError, QuadResult,
                         _check_tol, _integrate_shared, _steepest_descent)
from .scenario import (
    CausalClass,
    Dimension,
    InvalidScenarioError,
    Scenario,
    _bias_coeff,
    _classify,
    detector_bias,
    require_valid,
)

__all__ = [
    "Observable",
    "BalanceResult",
    "s2_observable",
    "interaction_energy_observable",
    "field_energy_observable",
    "row_observables",
    "energy_balance",
]


@dataclass(frozen=True)
class Observable:
    """A signalling value plus its quadrature bookkeeping.

    ``failure`` is None, or what the observable's public entry raises: a
    ValueError when the scenario, the time or the kernel's on-cone part
    rejects it, a QuadratureError when it fails numerically.  A failed
    observable has value and quad_error nan, and ``evaluations`` counts
    what it spent before it failed.  Failed records compare equal only
    when they hold the same exception object.
    """

    value: float
    quad_error: float
    evaluations: int
    failure: Optional[Exception] = None


_ZERO = Observable(0.0, 0.0, 0)


def _failed(failure: Exception, evaluations: int = 0) -> Observable:
    """The record of an observable that failed with ``failure`` after
    spending ``evaluations``."""
    return Observable(math.nan, math.nan, evaluations, failure)


@dataclass(frozen=True)
class BalanceResult:
    residual: float
    quad_error: float


# Picks of a shared pass.  A pick selects the lag kernel, D for _S2 (which
# the interaction energy integrates too) and F for _HF, on the real axis
# beyond the cone and continued into the 2+1D upper half-plane, and in
# the window correlation Bob's coefficient.
_S2, _HF = 0, 1
_TIMELIKE = (greens.commutator_timelike, greens.field_energy_timelike)
_CONTINUED = (greens.commutator_continued, greens.field_energy_continued)


# A 2+1D lag piece that does not end on the cone takes the steepest-
# descent route when it spans at least this many periods of its weight's
# top frequency.  At 20 periods GK already spends about 1,200
# evaluations per observable on a piece, against the route's 80 to 170:
# on the demo's two 3-long pieces at gap_B 41.9 the s2/hf_sig pair takes
# 0.98 ms on GK and 0.76 ms on the route (2-vCPU host, best of 20).  The
# sweeps of the shipped configurations reach 19.1 periods at most (demo
# gap_B 40 on a 3-long piece), so their rows keep GK's values; a test
# guards that.
_STEEPEST_DESCENT_PERIODS = 20.0
# On such a piece, a term of the window correlation that spans at least
# this many periods of its own frequency is integrated along the
# steepest-descent paths; the slowly varying rest by GK.
_OSCILLATORY_TERM_PERIODS = 2.0


def _window_correlation(s: Scenario, upper: float, picks):
    """The lag pass of 4 int dtau K(tau) C(tau) for each pick, _S2
    (K = D) or _HF (K = F): double integrals over both windows, Bob's up
    to ``upper`` (see :func:`_bob_upper`), whose kernels depend only on
    tau = t2 - t1.  It is the tuple (weight, terms, omega, lo, hi, kinks,
    factor, envelope) that :func:`_lag_integrals` takes.  weight(tau) is
    C(tau) = int bias_A(t1) Re(d_B e^{i Om_B (t1 + tau)}) dt1 for each pick,
    vectorized; terms(a, b) is C on one lag piece as a sum of
    exponentials, and terms is None when their phases would overflow
    (see :func:`_phases_finite`).  omega is max(Om_A, Om_B), the lags run
    over [lo, hi] = [T_on,B - T_off,A, upper - T_on,A], C has its kinks
    at T_on,B - T_on,A and upper - T_off,A, and factor is 4.  envelope
    is |c_A| |c_B| (T_off,A - T_on,A), which bounds |C| before any
    cancellation.

    ``_S2`` picks d_B = i c_B and ``_HF`` picks d_B = c_B, with c_B Bob's
    bias coefficient; both share every intermediate below.  t1 runs over
    the overlap of Alice's window with Bob's window [t_on, upper]
    shifted back by tau.  Writing both sinusoids about the overlap's
    midpoints (Alice's and Bob's absolute times) turns the integral into
    two sinc terms, which stay exact as the difference frequency
    Om_A - Om_B goes to 0.
    """
    a_on, a_off = s.alice.window.t_on, s.alice.window.t_off
    b_on = s.bob.window.t_on
    om_a, om_b = s.alice.gap, s.bob.gap
    c_a = _bias_coeff(s.alice)
    c_b = _bias_coeff(s.bob)
    # (c_A d_B, c_A conj(d_B)) per observable; s2's Bob factor
    # -Im(c_B e^{i Om_B t2}) is Re(i c_B e^{i Om_B t2})
    d_b = (1j * c_b, c_b)
    coeffs = [(c_a * d_b[p], c_a * d_b[p].conjugate()) for p in picks]

    def corr(tau):
        lo = np.maximum(a_on, b_on - tau)
        hi = np.minimum(a_off, upper - tau)
        w = np.maximum(hi - lo, 0.0)
        phase_a = om_a * 0.5 * (lo + hi)
        del lo, hi
        phase_b = om_b * 0.5 * (np.maximum(a_on + tau, b_on)
                                + np.minimum(a_off + tau, upper))
        # Re(x) Re(y) = [Re(x y) + Re(x conj(y))] / 2, and e^{i kappa t}
        # integrates over the overlap to w sinc(kappa w / 2) about its
        # midpoint.
        e_sum = np.exp(1j * (phase_a + phase_b))
        e_diff = np.exp(1j * (phase_a - phase_b))
        del phase_a, phase_b
        sinc_sum = np.sinc((om_a + om_b) * w / (2.0 * math.pi))
        sinc_diff = np.sinc((om_a - om_b) * w / (2.0 * math.pi))
        half_w = 0.5 * w
        return [
            half_w * ((c_sum * e_sum).real * sinc_sum
                      + (c_diff * e_diff).real * sinc_diff)
            for c_sum, c_diff in coeffs
        ]

    def terms(a, b):
        """C on the lag piece [a, b] as Re sum_j coefs_j[p] amp_j(tau)
        e^{i om_j tau}: a list of (om_j, amp_j, coefs_j) with om_j > 0,
        amp_j entire, vectorized and real on the real axis, and one
        coefficient per pick."""
        # lo and hi are affine on a piece: l0 + l1 tau and h0 + h1 tau
        mid = 0.5 * (a + b)
        l0, l1 = (b_on, -1.0) if b_on - mid > a_on else (a_on, 0.0)
        h0, h1 = (upper, -1.0) if upper - mid < a_off else (a_off, 0.0)
        w0, w1 = h0 - l0, h1 - l1
        m0, m1 = 0.5 * (l0 + h0), 0.5 * (l1 + h1)
        w_max = max(w0 + w1 * a, w0 + w1 * b)
        out = []
        # int_lo^hi e^{i kappa t1} dt1 times e^{+-i Om_B tau}, for the sum
        # and the difference term
        for k, kappa, om_bob in ((0, om_a + om_b, om_b),
                                 (1, om_a - om_b, -om_b)):
            cs = [c[k] for c in coeffs]
            if w1 and abs(kappa) * w_max > 1.0:
                # (e^{i kappa hi} - e^{i kappa lo}) / (2 i kappa): an end
                # fixed in t1 keeps Om_B, a moving one turns it into -Om_A
                for e0, e1, sign in ((h0, h1, 1.0), (l0, l1, -1.0)):
                    f = sign * cmath.exp(1j * kappa * e0) / (2j * kappa)
                    out.append((-om_a if e1 else om_bob, _unit,
                                [c * f for c in cs]))
                continue
            # e^{i kappa m} sin(kappa w / 2) / kappa kept whole, since
            # split into two exponentials it would cancel as kappa w -> 0;
            # its frequency is om_bob + kappa m1, written out so that
            # equal frequencies come out equal
            if m1 == 0.0:
                om = om_bob
            elif m1 == -1.0:
                om = -om_a
            else:
                om = 0.5 * (om_b - om_a) if k == 0 else -0.5 * (om_a + om_b)
            f = cmath.exp(1j * kappa * m0)
            out.append((om, _half_sinc(kappa, w0, w1), [c * f for c in cs]))
        # amp is real on the real axis, so Re(c amp e^{i om tau}) is
        # Re(conj(c) amp e^{-i om tau})
        return [(om, amp, cs) if om > 0
                else (-om, amp, [c.conjugate() for c in cs])
                for om, amp, cs in out]

    times = (a_on, a_off, b_on, upper)
    return (corr, terms if _phases_finite(s, times) else None,
            max(om_a, om_b), b_on - a_off, upper - a_on,
            (b_on - a_on, upper - a_off), 4.0, abs(c_a * c_b) * (a_off - a_on))


def _unit(z):
    """The amplitude of a single exponential."""
    return 1.0


def _half_sinc(kappa, w0, w1):
    """z -> sin(kappa w / 2) / kappa (w / 2 when kappa is 0), with
    w = w0 + w1 z: the overlap integral of e^{i kappa t1} about its
    midpoint, continued to complex lags."""
    if kappa == 0.0:
        return lambda z: 0.5 * (w0 + w1 * z)
    return lambda z: np.sin(0.5 * kappa * (w0 + w1 * z)) / kappa


def _interaction_weight(s: Scenario, t: float):
    """The lag pass of the interaction energy at time t, -4 bias_B(t)
    int bias_A(t - tau) D(tau, L) dtau: the tuple (weight, terms, omega,
    lo, hi, kinks, factor, envelope) of :func:`_window_correlation` for
    its one pick.  weight(tau) is Alice's bias at t - tau, and terms(a, b)
    writes it as Re(conj(c_A e^{i Om_A t}) e^{i Om_A tau}), a single
    exponential of amplitude 1 on every piece.  omega is Om_A, the lags
    run over [t - T_off,A, t - T_on,A] with no kink, factor is -4
    bias_B(t) and envelope |c_A|.
    """
    alice = s.alice

    def weight(tau):
        return [detector_bias(alice, t - tau)]

    def terms(a, b):
        c = _bias_coeff(alice) * cmath.exp(1j * alice.gap * t)
        return [(alice.gap, _unit, [c.conjugate()])]

    w = alice.window
    times = (t, w.t_on, w.t_off)
    return (weight, terms if _phases_finite(s, times) else None, alice.gap,
            t - w.t_off, t - w.t_on, (), -4.0 * detector_bias(s.bob, t),
            abs(_bias_coeff(alice)))


def _phase_scale(s: Scenario, times) -> float:
    """(Om_A + Om_B) T, T the largest |time|: the largest phase either
    detector builds from ``times``."""
    return (s.alice.gap + s.bob.gap) * max(map(abs, times))


def _phases_finite(s: Scenario, times) -> bool:
    """Whether every phase built from ``times`` or from a lag between two
    of them (at most 2T) is finite: an infinite one makes cmath.exp
    raise, and a closed form or a steepest-descent term built from it
    has no value."""
    return math.isfinite(2.0 * _phase_scale(s, times))


def _oscillatory_piece(s, picks, terms, a, b, tol):
    """int_a^b K_i(tau) W_i(tau) dtau for each pick i, on a 2+1D lag
    piece of ``s`` beyond the cone that does not end on it, from the
    weight's exponential ``terms`` on [a, b], in two parts.

    Terms that span at least _OSCILLATORY_TERM_PERIODS periods over the
    piece are grouped by frequency, and each group is integrated by
    numerical steepest descent against the continued kernels, every pick
    in one application of the rule.  The rest form a slowly varying
    weight.  Returns, per pick, the (values, error, evaluations) of the
    groups, and the plan at ``tol`` of the rest's lag pass (rest, None,
    top, a, b, (), 1.0, None), or None when there is no rest: it has no
    terms, and panels a quarter period of the rest's top frequency, which
    is > 0.
    """
    L, n = s.report.separation, len(picks)
    groups, low = {}, []
    for om, amp, coefs in terms:
        if om * (b - a) >= 2.0 * math.pi * _OSCILLATORY_TERM_PERIODS:
            groups.setdefault(om, []).append((amp, coefs))
        else:
            low.append((om, amp, coefs))
    moments = [[[], 0.0, 0] for _ in picks]  # values, error, evaluations
    for om, group in groups.items():
        def g(z, group=group):
            r = greens.continued_root(z, L)
            amps = [amp(z) for amp, _ in group]
            return [_CONTINUED[p](z, r)
                    * sum(c[i] * A for A, (_, c) in zip(amps, group))
                    for i, p in enumerate(picks)]

        values, errors, count = _steepest_descent(g, om, a, b)
        for moment, value, error in zip(moments, values, errors):
            moment[0].append(value.real)
            moment[1] += error
            moment[2] += count

    def weight(tau):
        waves = [(amp(tau) * np.exp(1j * om * tau), coefs)
                 for om, amp, coefs in low]
        return [sum((c[i] * wave).real for wave, c in waves)
                for i in range(n)]

    return moments, _plan(s, picks, (weight, None, max(
        om for om, _, _ in low), a, b, (), 1.0, None), tol) if low else None


def _settled(moments, rest, tol):
    """A pick's steepest-descent result on a piece: the QuadResult of its
    groups' ``moments`` (values, error, evaluations) and of the record
    ``rest`` of its rest (None when there is none); or, when the rest
    failed or the summed error exceeds ``tol``, the number of
    evaluations the attempt spent, and the pick is handed back."""
    values, err, evals = moments
    if rest is not None:
        values = [*values, rest.value]
        err += math.inf if rest.failure is not None else rest.quad_error
        evals += rest.evaluations
    return QuadResult(math.fsum(values), err, evals) if err <= tol else evals


@dataclass(slots=True)
class _Piece:
    """A lag piece [a, b] of a planned pass, and its route, decided where
    :func:`_plan` plans the piece and nowhere else.

    - ``gk``: GK panels a quarter period of the pass's omega wide.
    - ``gk-cone``: a 2+1D piece that starts on the cone, where the
      kernels have their 1/sqrt edge.  Its panels lie over u = sqrt(x),
      with x = tau - L, tau = L + u^2 and weight 2u, so the rule sees a
      smooth integrand and the kernels never see x rounded off against L.
      It ends two periods of omega past L when the pass has terms and
      the rest of the piece spans _STEEPEST_DESCENT_PERIODS; that rest
      is a piece of its own.
    - ``steepest-descent``: any other 2+1D piece that spans at least
      _STEEPEST_DESCENT_PERIODS periods of omega, when the pass has
      terms.  ``moments`` are its picks' groups by
      :func:`_oscillatory_piece`, and ``rest`` the plan of its slowly
      varying rest's pass over the piece at half the piece's share of
      tol, or None.  ``settled`` is set once the rests are integrated:
      per pick :func:`_settled`'s result, a QuadResult, or the
      evaluations of an attempt handed back to GK panels on the piece.
    - ``delta``: the 3+1D piece [L, L], D's on-cone delta, settled where
      it is planned: per pick :func:`_delta`'s QuadResult or
      QuadratureError.  It takes no GK panels.
    """

    a: float
    b: float
    route: str
    moments: Optional[list] = None
    rest: Optional[_Pass] = None
    settled: Optional[list] = None


@dataclass(slots=True)
class _Pass:
    """A planned lag pass: its picks, weight, omega, factor and tol, each
    piece's share of tol, its pieces, and ``ix``, its picks' indices
    among the integrands of its omega's GK batch, set once with the
    batches."""

    picks: list
    weight: object
    omega: float
    factor: float
    tol: float
    piece_tol: float
    pieces: list
    ix: Optional[range] = None


def _plan(s, picks, lag_pass, tol):
    """The plan of ``lag_pass`` for ``picks`` at ``tol``: its lag range
    cut at L and at its weight's kinks, so every piece is smooth, without
    the pieces inside the cone, where the kernels vanish, and each piece
    with its route (see :class:`_Piece`).  In 3+1D, where D beyond the
    cone is its delta at L, the one piece is [L, L] when the lags cross
    L.  ``tol`` is split across the pieces and divided by |factor|."""
    weight, terms, omega, lo, hi, kinks, factor, envelope = lag_pass
    L, d2 = s.report.separation, s.dimension is Dimension.D2p1
    cuts = [c for c in sorted({lo, hi, L, *kinks}) if lo <= c <= hi]
    spans = [(a, b) for a, b in zip(cuts, cuts[1:]) if 0.5 * (a + b) > L]
    if s.dimension is Dimension.D3p1:
        spans = [(L, L)] if lo < L < hi else []
    # a 2+1D piece on the cone, where GK costs O(Om T), keeps two periods
    # of omega there, and past them a piece of its own that spans the
    # steepest-descent threshold is offered to that route
    head = L + 4.0 * math.pi / omega
    if d2 and terms is not None and spans and spans[0][0] == L \
            and omega * (spans[0][1] - head) \
            >= 2.0 * math.pi * _STEEPEST_DESCENT_PERIODS:
        spans[:1] = [(L, head), (head, spans[0][1])]
    # a pass with no piece takes no panels: the rows never make one, so
    # none can have its weight evaluated on another pass's nodes
    piece_tol = tol / (len(spans) or 1) / (abs(factor) or 1.0)
    pieces = []
    for a, b in spans:
        route, parts = "gk-cone" if d2 and a == L else "gk", ()
        if a == b:
            route, parts = "delta", (None, None, _delta(
                s, len(picks), weight, envelope, piece_tol))
        elif d2 and a != L and terms is not None and omega * (b - a) \
                >= 2.0 * math.pi * _STEEPEST_DESCENT_PERIODS:
            route, parts = "steepest-descent", _oscillatory_piece(
                s, picks, terms(a, b), a, b, 0.5 * piece_tol)
        pieces.append(_Piece(a, b, route, *parts))
    return _Pass(picks, weight, omega, factor, tol, piece_tol, pieces)


def _delta(s, n, weight, envelope, tol):
    """For each of the ``n`` picks, int delta(tau - L) c W(tau) dtau =
    c W(L), with c the 3+1D delta's coefficient -1/(4 pi L) and W the
    pick's ``weight``: a QuadResult of one evaluation, or a
    QuadratureError.  Its error is |c| times :func:`_rounding` of the
    weight's ``envelope``, T the largest |time| of the windows.  A bound
    above ``tol`` fails with reason "roundoff" before W is evaluated, so
    a phase that overflows is never formed (its bound is inf, or nan
    where the envelope is 0); a W(L) that is not finite fails with
    reason "non-finite"."""
    L, a, b = s.report.separation, s.alice.window, s.bob.window
    c = greens.commutator_kernel(Dimension.D3p1, L, L).on_lightcone_delta
    bound = abs(c) * _rounding(s, envelope, a.t_on, a.t_off, b.t_on,
                               b.t_off)
    if not bound <= tol:
        return [QuadratureError(
            f"the on-cone delta's rounding bound {bound:.3e} exceeds tol "
            f"{tol:.3e}", "roundoff")] * n
    return [QuadResult(c * float(w), bound, 1) if math.isfinite(c * w)
            else QuadratureError(f"the weight at the cone is {float(w)!r}",
                                 "non-finite", evaluations=1)
            for w in weight(L)]


def _lag_integrals(s, passes, tol):
    """factor * int_lo^hi K_i(tau) W_i(tau) dtau over tau > L for each
    pick i of each lag pass, for all passes at once: K_i is the
    pick's lag kernel in the scenario's dimension, L its separation and
    W_i the pick's weight.  The lags are >= 0 (Alice switches off before
    Bob switches on, and hI is taken inside Bob's window), so the cone
    is the one lag L.

    This is the one place that lays a lag integral out on GK panels: for
    the rows, the public entries and the validation suite alike.
    ``passes`` lists (picks, lag_pass) pairs, ``lag_pass`` the tuple
    (weight, terms, omega, lo, hi, kinks, factor, envelope) that
    :func:`_window_correlation` or :func:`_interaction_weight` builds.
    ``weight(tau)`` returns one weight array per pick, and
    ``terms(a, b)`` the weights on the lag piece [a, b] as a sum of
    exponentials, or ``terms`` is None when their phases would overflow.
    ``envelope`` bounds |weight| before cancellation; only a 3+1D pass
    reads it, and any other may give None.
    ``tol`` is checked by the public entries before they pick a route.

    Each pass is planned by :func:`_plan` into :class:`_Piece` records,
    each holding its route; the route rule is there.  Every pass, and
    every rest, joins the GK batch of its ``omega``, and the GK panels
    of a batch in a round are one :func:`quadrature._integrate_shared`
    call, made only when some piece takes them: in the first round
    every piece off the steepest-descent route, in the second, made
    only when some piece took that route, each pick it hands back.
    Passes whose pieces coincide share their panels: each weight and
    each kernel is evaluated once on all the batch's initial nodes,
    then each pick is refined piece by piece on its own as its results
    are taken, so each gets the value, error and evaluation count it
    gets alone.  A pick stops at the first piece it
    fails on: no later piece's result is taken, so none is refined for
    it.  Its record fails with a QuadratureError naming ``tol``, with no
    ``best``, and counts the evaluations of the earlier pieces and of
    the failed attempts, nodes whose values were not finite included.  A
    pass with no lag past the cone gives exact zeros.  Returns one
    Observable per pick, pass by pass.
    """
    plan = [_plan(s, picks, lag_pass, tol) for picks, lag_pass in passes]
    routed = [(e, p) for e in plan for p in e.pieces
              if p.route == "steepest-descent"]
    # per omega the passes of its GK batch, the callers' and then their
    # pieces' rests, each with its picks' indices among the integrands.
    # A row keeps one batch per omega: in one batch per round every
    # pass's weight would be evaluated on every node, and a prototype
    # ran 1.2% slower on sweep-2p1 rows and 2.5% on long-window rows
    batches = {}
    for entry in plan + [p.rest for _, p in routed if p.rest]:
        group = batches.setdefault(entry.omega, [])
        start = group[-1].ix.stop if group else 0
        entry.ix = range(start, start + len(entry.picks))
        group.append(entry)
    # the first round lays out every piece on a GK route for all its
    # pass's picks, the second, when a piece took the steepest-descent
    # route, each such piece for the picks the route hands back there
    rounds = [_gk_batches(s, batches, [
        (e, p, e.ix) for group in batches.values() for e in group
        for p in e.pieces if p.route.startswith("gk")])]
    for entry, piece in routed:
        rests = _assemble(piece.rest, rounds) if piece.rest \
            else [None] * len(entry.picks)
        piece.settled = [_settled(m, r, entry.piece_tol)
                         for m, r in zip(piece.moments, rests)]
    if routed:
        rounds.append(_gk_batches(s, batches, [
            (e, p, [i for i, res in zip(e.ix, p.settled)
                    if not isinstance(res, QuadResult)]) for e, p in routed]))
    return [obs for entry in plan for obs in _assemble(entry, rounds)]


def _gk_batches(s, batches, taken):
    """{omega: one result iterator per integrand of its batch}: the GK
    panels of ``taken``, (pass, piece, integrands) triples, one
    :func:`quadrature._integrate_shared` call per omega of ``batches``,
    {omega: its planned passes}, made only when some piece takes its
    panels."""
    L, shared, out = s.report.separation, {}, {}
    for entry, piece, ix in taken:
        if ix:
            shared.setdefault(entry.omega, {}).setdefault(
                (piece.a, piece.b, piece.route), []).extend(ix)
    for omega, pieces in shared.items():
        group = batches[omega]
        # the intervals in order of their pieces, which keeps each
        # pick's pieces in order; those that start on the cone come
        # first, over u = sqrt(tau - L) from 0 to sqrt(b - L), where
        # du = dx / (2u) maps an x-width W to at least
        # W / (2 sqrt(b - L))
        width = (2.0 * math.pi / omega) / 4.0
        intervals = [
            (0.0, math.sqrt(b - L), width / (2.0 * math.sqrt(b - L)), ix)
            if route == "gk-cone" else (a, b, width, ix)
            for (a, b, route), ix in sorted(pieces.items())]
        n_cone = sum(route == "gk-cone" for _, _, route in pieces)
        out[omega] = _integrate_shared(
            _lag_integrand(s.dimension, L, group, n_cone), intervals,
            [entry.piece_tol for entry in group for _ in entry.picks])
    return out


def _assemble(entry, rounds):
    """The records of the pass planned as ``entry``: per pick, its
    pieces' results, each settled where the piece was planned or on the
    steepest-descent route or, in order, the pick's next GK result in
    ``rounds``, the second round's when the route handed the pick back,
    summed up to the first failure."""
    if not entry.pieces:
        return [_ZERO] * len(entry.picks)
    out = []
    for n, i in enumerate(entry.ix):
        values, err, evals = [], 0.0, 0
        for piece in entry.pieces:
            # on GK panels in round r, after an attempt of res evaluations
            # when the route handed the pick back
            r, res = (1, piece.settled[n]) if piece.settled else (0, 0)
            if type(res) is int:
                evals += res
                res = next(rounds[r][entry.omega][i])
            if isinstance(res, QuadratureError):
                exc = QuadratureError(
                    f"tol {entry.tol:.3e} not reached on the lag piece "
                    f"[{piece.a!r}, {piece.b!r}]: {res}", res.reason,
                    evaluations=evals + res.evaluations)
                exc.__cause__ = res
                out.append(_failed(exc, exc.evaluations))
                break
            values.append(res.value)
            err += res.abs_error_estimate
            evals += res.evaluations
        else:
            out.append(Observable(entry.factor * math.fsum(values),
                                  abs(entry.factor) * err, evals))
    return out


def _lag_integrand(dim, L, group, n_cone):
    """The integrand of a GK batch of lag passes: f(v, j) is, for each
    pick of each planned pass of ``group``, the pick's kernel times its
    weight at the lags v of intervals j, each kernel evaluated once.  On
    the first ``n_cone`` intervals, which start on the cone, v is
    u = sqrt(tau - L), and the integrand carries the Jacobian 2u; with
    no such interval, v is tau and no Jacobian is applied."""
    kinds = {p for entry in group for p in entry.picks}

    def f(v, j):
        if n_cone:
            on = j < n_cone
            u = np.where(on, v, 0.0)
            x = np.where(on, u * u, v - L)
            tau, jac = np.where(on, L + x, v), np.where(on, 2.0 * u, 1.0)
        else:
            tau, x = v, v - L
        kernel = {p: _TIMELIKE[p](dim, tau, x, L) for p in kinds}
        out = [kernel[p] * w_i for entry in group
               for p, w_i in zip(entry.picks, entry.weight(tau))]
        return [jac * f_i for f_i in out] if n_cone else out
    return f


def _one(obs: Observable) -> Observable:
    """``obs``, or its failure raised: the one place where a record's
    failure becomes an exception, for the public entries and the
    validation suite."""
    if obs.failure is not None:
        raise obs.failure
    return obs


def _bob_upper(s: Scenario, t: Optional[float]) -> float:
    """Bob's upper limit min(t, T_off) for evaluation time t >= T_on."""
    if t is None:
        t = s.bob.window.t_off
    if not t >= s.bob.window.t_on:  # also rejects nan
        raise ValueError(
            f"evaluation time {t!r} precedes bob's switch-on "
            f"{s.bob.window.t_on!r}"
        )
    return min(t, s.bob.window.t_off)


def _rounding(s: Scenario, amplitude: float, *times) -> float:
    """A 1+1D closed form's error: 8 eps (1 + (Om_A + Om_B) T) times the
    summed amplitude products of its terms (|c_A|, |c_B|, 1/Om and sinc
    envelopes, not values after cancellation), T the largest |time| in a
    phase, which rounding turns by eps Om |t|.  On 360 random values the
    error was at most 0.02 of it (40-digit references)."""
    return 8.0 * math.ulp(1.0) * (1.0 + _phase_scale(s, times)) * amplitude


# What a closed form returns when its phases overflow: no value, and an
# error no tol accepts.
_UNBOUNDED = Observable(math.nan, math.inf, 0)


def _change(c: complex, om: float, lo: float, hi: float) -> float:
    """int_lo^hi Re(c e^{i om t}) dt, as [Im(c e^{i om t}) / om]_lo^hi."""
    return ((c * cmath.exp(1j * om * hi)).imag
            - (c * cmath.exp(1j * om * lo)).imag) / om


def _s2_1p1(s: Scenario, upper: float) -> Observable:
    """s2 in 1+1D up to ``upper``, for any windows, in closed form.

    D = 1/2 beyond the cone, so with Psi_A Alice's bias antiderivative
    s2 = 2 int Re(i c_B e^{i Om_B t2}) [Psi_A(min(T_off,A, t2 - L))
    - Psi_A(T_on,A)]_+ dt2.  Bob's window splits at T_on,A + L and
    T_off,A + L: before the first nothing, past the second a product of
    antiderivatives, between them a product of sinusoids in sum and
    difference form, whose sinc keeps it exact as Om_A -> Om_B.
    """
    a_on, a_off = s.alice.window.t_on, s.alice.window.t_off
    b_on, L = s.bob.window.t_on, s.report.separation
    times = (a_on, a_off, b_on, upper)
    if not _phases_finite(s, times):
        return _UNBOUNDED
    c_a, om_a = _bias_coeff(s.alice), s.alice.gap
    d_b, om_b = 1j * _bias_coeff(s.bob), s.bob.gap
    values, amplitude = [], 0.0
    lo = max(b_on, a_off + L)
    if upper > lo:  # all of Alice's window in t2's past cone
        values.append(2.0 * _change(c_a, om_a, a_on, a_off)
                      * _change(d_b, om_b, lo, upper))
        amplitude += 8.0 / (om_a * om_b)
    lo, hi = max(b_on, a_on + L), min(upper, a_off + L)
    if hi > lo:  # Alice's window up to t2 - L
        # 2 Re(x) Im(y) = Im(x y) - Im(x conj(y)) for x = d_B e^{i Om_B t2},
        # y = c_A e^{i Om_A (t2 - L)}: each integrates to its value at the
        # midpoint m times 2 sin(k w / 2) / k, of envelope 2 min(w/2, 1/|k|)
        w, m = hi - lo, 0.5 * (lo + hi)
        (h_sum, e_sum), (h_diff, e_diff) = [
            (math.sin(0.5 * k * w) / k, min(0.5 * w, 1.0 / abs(k))) if k
            else (0.5 * w, 0.5 * w) for k in (om_b + om_a, om_b - om_a)]
        phase_b, phase_a = om_b * m, om_a * (m - L)
        values += [
            2.0 / om_a * (
                (d_b * c_a * cmath.exp(1j * (phase_b + phase_a))).imag
                * h_sum - h_diff * (d_b * c_a.conjugate() * cmath.exp(
                    1j * (phase_b - phase_a))).imag),
            -2.0 * (c_a * cmath.exp(1j * om_a * a_on)).imag / om_a
            * _change(d_b, om_b, lo, hi),
        ]
        amplitude += (2.0 * (e_sum + e_diff) + 4.0 / om_b) / om_a
    return Observable(math.fsum(values), _rounding(
        s, abs(c_a) * abs(d_b) * amplitude, *times), 0)


def _hI_1p1(s: Scenario, t: float) -> Observable:
    """hI in 1+1D at t, in closed form: -2 bias_B(t)
    [Psi_A(min(T_off,A, t - L)) - Psi_A(T_on,A)], with Psi_A Alice's
    bias antiderivative, for a t whose lag t - T_on,A passes L."""
    a_on = s.alice.window.t_on
    end = min(s.alice.window.t_off, t - s.report.separation)
    times = (t, a_on, end)
    if not _phases_finite(s, times):
        return _UNBOUNDED
    c_a, om_a = _bias_coeff(s.alice), s.alice.gap
    amplitude = 4.0 * abs(c_a) * abs(_bias_coeff(s.bob)) / om_a
    return Observable(-2.0 * detector_bias(s.bob, t)
                      * _change(c_a, om_a, a_on, end),
                      _rounding(s, amplitude, *times), 0)


# Why each pick (by index) is rejected where the cone meets its integration
# region: D's on-cone part is the 3+1D delta, which an end of the lags
# puts on a switching edge, F's is unspecified in every dimension.
_ON_CONE_REJECTIONS = (
    "3+1D lags end on the lightcone: its delta lands on a switching edge, "
    "whose convention decides its value; rejected",
    "field energy for windows touching the lightcone depends on the "
    "kernel's unspecified on-cone part; rejected",
)
# At L = 0 the 2+1D D is 1/(2 pi tau), which no weight that stays nonzero
# at tau = 0 can integrate: Alice's bias, for hI at her switch-off time.
# At an L whose square is subnormal the integral is finite, but D's
# radicand x (tau + L) underflows near the cone.
_DIVERGENT_HI = ("interaction energy at alice's switch-off time in 2+1D at "
                 "L = 0, or at an L whose square is subnormal: D = 1/(2 pi "
                 "tau) is not integrable against her bias at the lag 0; "
                 "rejected")


def _route(s: Scenario, pick, t2_lo: float, t2_hi: float, closed_form,
           tol):
    """The one route rule: a pick's rejection, closed form or zero, or
    None for the lag pass.  Bob's time t2 runs over [t2_lo, t2_hi] in
    the pick's integration region and Alice's t1 over her window, so the
    lags t2 - t1 range over [lo, hi] = [t2_lo - T_off,A, t2_hi - T_on,A],
    which the cone meets where :func:`qcc.scenario._classify` says so; a
    region that only touches the cone meets it.

    Off the cone D is 1/2 in 1+1D, 0 in 3+1D and decays in 2+1D, and F
    vanishes in all three.  So a kernel with an on-cone part where the
    cone meets the region is rejected: F in every dimension, and D's
    delta in 3+1D where L is an end of the lags, lo or hi, a switching
    edge whose convention would decide its value.  At L = 0 the 2+1D D
    is 1/(2 pi tau), integrable only against a weight that vanishes at
    the lag 0.  The window correlation of a region of positive length
    does at its lowest lag, but hI's region is one Bob time t, whose
    weight is Alice's bias at t - tau: hI is rejected too where
    lo = L = 0, at T_off,A.  So it is where lo <= L
    and L^2 is below the smallest normal float: the integral, about
    ln(1/L), is finite there, but near the cone D's radicand x (tau +
    L), about u^2 (u^2 + 2L) in the cone substitution tau = L + u^2,
    underflows to 0 and D to inf.  Both kernels vanish
    at every lag up to L, so a region with no lag past L is an exact
    zero, built from nothing.  A region whose lags pass L by less than
    the rounding of hi, which lands hi on L, fails with reason
    "roundoff", at 0 evaluations: every route would cut it off at the
    rounded end.  The rest is computed: 1+1D D takes ``closed_form()``,
    failed with reason "roundoff" when its rounding bound exceeds
    ``tol``, a kernel that vanishes off the cone gives 0, and 2+1D takes
    the lag pass, as does 3+1D D where lo < L < hi, for its delta.
    """
    a, L = s.alice.window, s.report.separation
    lo, hi = t2_lo - a.t_off, t2_hi - a.t_on
    if _classify(lo, hi, L) is CausalClass.LIGHTCONE_CROSSING and (
            pick == _HF or s.dimension is Dimension.D3p1 and L in (lo, hi)):
        return _failed(InvalidScenarioError(_ON_CONE_REJECTIONS[pick]))
    if lo <= L and L * L < sys.float_info.min and t2_lo == t2_hi \
            and s.dimension is Dimension.D2p1:
        return _failed(InvalidScenarioError(_DIVERGENT_HI))
    # rounding keeps hi on the exact end's side of L or lands it on L;
    # there the sign of the exact sum says whether a lag passes the cone,
    # and if one does, every route below would cut it off at hi
    if hi == L and math.fsum((t2_hi, -a.t_on, -L)) > 0.0:
        return _failed(QuadratureError(
            f"the lags past the cone L = {L!r}, up to {t2_hi!r} - "
            f"{a.t_on!r}, round onto it", "roundoff"))
    if hi <= L:
        return _ZERO
    if s.dimension is Dimension.D1p1 and pick == _S2:
        obs = closed_form()
        if not obs.quad_error <= tol:
            return _failed(QuadratureError(
                f"the closed form's rounding bound {obs.quad_error:.3e} "
                f"exceeds tol {tol:.3e}", "roundoff"))
        return obs
    # 2+1D, and 3+1D D whose lags cross its delta
    if s.dimension is Dimension.D2p1 or lo < L and pick == _S2:
        return None
    return _ZERO


def _correlations(s: Scenario, t: Optional[float], picks, tol: float):
    """For each pick, the record of its public route where that is not
    the lag pass, else None; and the (picks, lag pass) pair that takes
    the rest, or None.  ``tol`` is checked after, by :func:`_records`.
    The scenario and the time are checked once, and a failure there is
    every pick's.  An empty Bob window gives exact zeros; otherwise t2
    runs over [T_on,B, upper] and t1 over Alice's window, and
    :func:`_route` decides from their lag range."""
    try:
        require_valid(s)
        upper = _bob_upper(s, t)
    except ValueError as exc:
        return [_failed(exc)] * len(picks), None
    b_on = s.bob.window.t_on
    if upper == b_on:
        return [_ZERO] * len(picks), None
    out = [_route(s, p, b_on, upper, lambda: _s2_1p1(s, upper), tol)
           for p in picks]
    lag = [p for p, record in zip(picks, out) if record is None]
    return out, (lag, _window_correlation(s, upper, lag)) if lag else None


def _interaction(s: Scenario, t: float, tol: float):
    """hI at t as :func:`_correlations` gives a pick: a one-record list,
    holding the scenario or time it rejects or :func:`_route`'s outcome,
    or None for the lag pass; and that pass, or None."""
    w = s.bob.window
    try:
        require_valid(s)
        if not w.t_on <= t <= w.t_off:
            raise ValueError(
                f"t={t!r} outside bob's window [{w.t_on!r}, {w.t_off!r}]")
    except ValueError as exc:
        return [_failed(exc)], None
    out = _route(s, _S2, t, t, lambda: _hI_1p1(s, t), tol)
    return [out], ([_S2], _interaction_weight(s, t)) if out is None else None


def _records(s: Scenario, routes, tol: float):
    """The records of each of ``routes``, each what :func:`_correlations`
    or :func:`_interaction` returns, with the lag passes of all of them
    in one :func:`_lag_integrals` call, made only when there is one.
    ``tol`` is checked here, once for all the routes and whether or not
    a pass is made: one that is not finite and positive raises
    ValueError.  The routes run before it, and none raises on a bad
    ``tol``."""
    _check_tol(tol)
    passes = [lag for _, lag in routes if lag]
    computed = iter(_lag_integrals(s, passes, tol) if passes else ())
    return [[next(computed) if record is None else record
             for record in records] for records, _ in routes]


def s2_observable(
    s: Scenario, t: Optional[float] = None, tol: float = DEFAULT_TOL
) -> Observable:
    """Leading-order signalling shift of Bob's excitation probability.

    S2 = 4 int dt2 int dt1 bias_A(t1) * Re(alpha_B* beta_B e^{i Om_B t2}
    * i D(t2 - t1, L)), per lambda_A lambda_B, with t2 running over Bob's
    window up to ``t`` (default: his switch-off time); returned with its
    error estimate and evaluation count.  1+1D takes its closed form
    (see :func:`_s2_1p1`), 3+1D its zero off the cone (Huygens) and its
    on-cone delta across it, and 2+1D the lag quadrature.  A ``tol`` that
    is not finite and positive raises ValueError, in every dimension.
    """
    return _one(_records(s, [_correlations(s, t, [_S2], tol)], tol)[0][0])


def interaction_energy_observable(
    s: Scenario, t: float, tol: float = DEFAULT_TOL
) -> Observable:
    """Signalling contribution to the interaction energy <H_I,B> at t.

    Equals -4 Re(alpha_B* beta_B e^{i Omega_B t}) K(t) with
    K(t) = int bias_A(t1) D(t - t1, L) dt1, per lambda_A lambda_B, with
    error bookkeeping.  1+1D takes its closed form (see :func:`_hI_1p1`),
    3+1D is 0 off the cone and its on-cone delta across it, and 2+1D
    takes the lag quadrature; the integral's lags t - t1 run over
    [t - T_off,A, t - T_on,A].  A bad ``tol`` (not finite and positive),
    scenario or ``t`` raises ValueError, in every dimension; with a bad
    ``tol``, it is tol's.
    """
    return _one(_records(s, [_interaction(s, t, tol)], tol)[0][0])


def field_energy_observable(
    s: Scenario, t: Optional[float] = None, tol: float = DEFAULT_TOL
) -> Observable:
    """Signalling contribution to the field energy after time t.

    4 int dt2 int dt1 bias_A(t1) bias_B(t2) F(t1 - t2, L) over Bob's
    window up to t, with F the field-energy kernel; identically zero in
    1+1D and 3+1D for timelike windows (cone-supported kernel), computed
    by quadrature in 2+1D.  Per lambda_A lambda_B, with error bookkeeping.
    A ``tol`` that is not finite and positive raises ValueError, in every
    dimension.
    """
    return _one(_records(s, [_correlations(s, t, [_HF], tol)], tol)[0][0])


def row_observables(s: Scenario, t: Optional[float] = None,
                    tol: float = DEFAULT_TOL):
    """One row's (s2, hI_on, hI_off, hf_sig) records: the Observable
    each public route returns, or a failed one holding the ValueError or
    QuadratureError it raises.

    s2 and hf_sig run over Bob's window up to min(t, T_off) (``t``
    default: T_off); hI is taken at T_on and at min(t, T_off).
    :func:`_route` decides all four first, and the lag passes it leaves,
    usually s2/hf_sig, hI_on and hI_off, are one :func:`_lag_integrals`
    call, which gives each record bit for bit what its public route
    returns.  A bad scenario or time fails each record it concerns, but
    a ``tol`` that is not finite and positive raises ValueError, in
    every dimension.
    """
    w = s.bob.window
    (s2, hf), (hi_on,), (hi_off,) = _records(s, [
        _correlations(s, t, [_S2, _HF], tol),
        _interaction(s, w.t_on, tol),
        _interaction(s, w.t_off if t is None else min(t, w.t_off), tol),
    ], tol)
    return s2, hi_on, hi_off, hf


def energy_balance(s: Scenario, tol: float = DEFAULT_TOL) -> BalanceResult:
    """Energy-balance residual with the combined quadrature error.

    The identity: the signalling parts of Bob's detector energy plus the
    field energy equal the interaction-energy drop between switch-on and
    switch-off, [Om_B s2(T2) + hf(T2)] - [hI(T1) - hI(T2)].  It should
    vanish within quadrature error for strictly timelike windows.  Raises
    ValueError for windows that are not strictly timelike, and for a
    ``tol`` that is not finite and positive, in every dimension.
    """
    report = require_valid(s)
    if report.causal_class is not CausalClass.TIMELIKE:
        raise InvalidScenarioError(
            "energy balance is defined for strictly timelike windows, "
            f"got {report.causal_class.value}"
        )
    s2, hi_on, hi_off, hf = row_observables(s, None, tol)
    # raises the first failure, in the order s2, hf_sig, hI_on, hI_off
    s2, hf, hi_on, hi_off = map(_one, (s2, hf, hi_on, hi_off))
    om_b = s.bob.gap
    return BalanceResult(
        (om_b * s2.value + hf.value) - (hi_on.value - hi_off.value),
        om_b * s2.quad_error + hf.quad_error
        + hi_on.quad_error + hi_off.quad_error,
    )
