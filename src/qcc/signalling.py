"""Leading-order signalling observables for a two-detector scenario.

Everything here is the O(lambda_A lambda_B) cross term: the shift S2 in
Bob's excitation probability sourced by Alice's coupling, the matching
signalling parts of the detector, interaction and field energies, and the
energy-balance identity tying them together, all divided by
lambda_A lambda_B.

One rule, :func:`_route`, decides every route that is not quadrature,
for s2, hf_sig and hI alike, from one input: the range [lo, hi] of the
lags t2 - t1 over the integral's own region, which the cone meets when
lo <= L <= hi.  There a kernel with an on-cone part is rejected (F in
every dimension, D's delta in 3+1D); otherwise 1+1D D takes its closed
form, a kernel that vanishes off the cone gives 0, and 2+1D takes the
lag quadrature below.

In 1+1D each observable is a closed form, its only route: every lag
t2 - t1 is >= 0 (Alice switches off before Bob switches on), D is the
constant 1/2 beyond the cone and F lives on the cone.  Each reports a
rounding bound as its error, fails with reason "roundoff" when that
bound exceeds tol, and costs no evaluations.

Elsewhere each double integral over the two windows is one integral
int dtau K(tau) C(tau) over the lag tau = t2 - t1, with C the windowed
cross-correlation of the two detector sinusoids, in closed form.  Its
kinks and the lightcone |tau| = L are the breakpoints of one adaptive
quadrature in tau, which is also the 1+1D closed forms' oracle.  The
interaction energy at a time t is the same integral with Alice's bias
at t - tau as the weight, and the 3+1D on-cone delta reduces s2 to C at
tau = L.  D and F are :mod:`qcc.greens`'; this module holds no closed
form of either.  :func:`row_observables` computes a whole row, s2 and
the field energy in one shared pass: on each lag piece C's
intermediates and both integrands are evaluated on one initial node
set, then each is refined, budget-checked and failed on its own, so
each gets exactly what its own public route returns.

GK panels a quarter period wide cost O(Om T) evaluations on a lag
piece.  So a 2+1D piece that spans at least _STEEPEST_DESCENT_PERIODS
periods of its weight's top frequency, and does not end on the cone
where the kernels have their 1/sqrt edge, takes a second route.  On a
piece the weight is exactly a finite sum of exponentials
sum_j P_j(tau) e^{i om_j tau}, and the kernels continue analytically
into the upper half-plane, so each high-frequency group of terms is
integrated by numerical steepest descent at a cost independent of
om_j, and GK takes the slowly varying rest.  A pick whose estimate
misses its share of tol is redone on GK panels, so a failure there is
the GK route's failure.  Where 2 (Om_A + Om_B) times the largest |time|
overflows, the exponentials cannot be formed, and every piece stays on
GK panels; a closed form there reports an infinite rounding bound.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import greens
from .quadrature import (_EPS, DEFAULT_TOL, QuadratureError, QuadResult,
                         _check_tol, _integrate_shared, _steepest_descent)
from .scenario import (
    CausalClass,
    Dimension,
    InvalidScenarioError,
    Scenario,
    _bias_coeff,
    detector_bias,
    require_valid,
)

__all__ = [
    "Observable",
    "BalanceResult",
    "s2_observable",
    "s2_null_3p1",
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
    """(corr, terms).  corr(tau) is C(tau) = int bias_A(t1)
    Re(d_B e^{i Om_B (t1 + tau)}) dt1 for each observable in ``picks``,
    vectorized; terms(a, b) is C on one lag piece as a sum of
    exponentials, and terms is None when their phases would overflow
    (see :func:`_phases_finite`).

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
        sinc_sum = _sinc((om_a + om_b) * w / (2.0 * math.pi))
        sinc_diff = _sinc((om_a - om_b) * w / (2.0 * math.pi))
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
    return corr, terms if _phases_finite(s, times) else None


def _sinc(x):
    """np.sinc(x) of a float array, by its own arithmetic: sin(pi x) /
    (pi x), with pi x replaced by eps where it is 0."""
    x = math.pi * x
    y = np.where(x, x, _EPS)
    return np.sin(y) / y


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
    """(weight, terms) of the interaction energy at time t, as
    :func:`_window_correlation` returns them for its one pick: weight(tau)
    is Alice's bias at t - tau, and terms(a, b) writes it as
    Re(conj(c_A e^{i Om_A t}) e^{i Om_A tau}), a single exponential of
    amplitude 1 on every piece."""
    alice = s.alice

    def weight(tau):
        return [detector_bias(alice, t - tau)]

    def terms(a, b):
        c = _bias_coeff(alice) * cmath.exp(1j * alice.gap * t)
        return [(alice.gap, _unit, [c.conjugate()])]

    times = (t, alice.window.t_on, alice.window.t_off)
    return weight, terms if _phases_finite(s, times) else None


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


def _oscillatory_piece(L, picks, terms, a, b, tol):
    """int_a^b K_i(tau) W_i(tau) dtau for each pick i, on a 2+1D lag
    piece beyond the cone that does not end on it, from the weight's
    exponential ``terms`` on [a, b].

    Terms that span at least _OSCILLATORY_TERM_PERIODS periods over the
    piece are grouped by frequency, and each group is integrated by
    numerical steepest descent against the continued kernels; the rest
    form a slowly varying remainder, which GK integrates against the
    real-axis kernels on panels a quarter period of its own top
    frequency, to half of ``tol``.  Returns, per pick, a QuadResult, or,
    when the remainder fails or the summed error estimate exceeds
    ``tol``, the number of evaluations the attempt spent: the caller then
    redoes that pick's piece on the GK path and counts them.
    """
    n = len(picks)
    kernels = [_TIMELIKE[p] for p in picks]
    continued = [_CONTINUED[p] for p in picks]
    groups, low = {}, []
    for om, amp, coefs in terms:
        if om * (b - a) >= 2.0 * math.pi * _OSCILLATORY_TERM_PERIODS:
            groups.setdefault(om, []).append((amp, coefs))
        else:
            low.append((om, amp, coefs))
    values = [[] for _ in range(n)]
    err, evals = [0.0] * n, [0] * n
    for om, group in groups.items():
        def g(z, group=group):
            amps = [amp(z) for amp, _ in group]
            return [k(z, L)
                    * sum(c[i] * A for A, (_, c) in zip(amps, group))
                    for i, k in enumerate(continued)]

        moments, errors, count = _steepest_descent(g, om, a, b)
        for i in range(n):
            values[i].append(moments[i].real)
            err[i] += errors[i]
            evals[i] += count
    if low:
        top = max(om for om, _, _ in low)

        def remainder(tau):
            x = np.abs(tau) - L
            waves = [(amp(tau) * np.exp(1j * om * tau), coefs)
                     for om, amp, coefs in low]
            return [k(Dimension.D2p1, tau, x, L)
                    * sum((c[i] * wave).real for wave, c in waves)
                    for i, k in enumerate(kernels)]

        width = (2.0 * math.pi / top) / 4.0 if top > 0 else None
        for i, res in enumerate(_integrate_shared(remainder, n, a, b,
                                                  0.5 * tol, width)):
            evals[i] += res.evaluations
            if isinstance(res, QuadratureError):
                err[i] = math.inf
                continue
            values[i].append(res.value)
            err[i] += res.abs_error_estimate
    return [QuadResult(math.fsum(values[i]), err[i], evals[i])
            if err[i] <= tol else evals[i] for i in range(n)]


def _lag_integrals(s, picks, weight, terms, omega, lo, hi, kinks, tol,
                   factor):
    """factor * int_lo^hi K_i(tau) W_i(tau) dtau over |tau| > L for each
    pick i, on one node set: K_i is the pick's lag kernel in the
    scenario's dimension, L its separation and W_i the pick's weight.

    ``weight(tau)`` returns one weight array per pick, and ``terms(a,
    b)`` the weights on the lag piece [a, b] as a sum of exponentials
    (see :func:`_window_correlation`), or ``terms`` is None when their
    phases would overflow.  The lag range is cut at +-L and at the
    weight's ``kinks`` so every piece is smooth, and panels start a
    quarter period of the weight's top frequency ``omega`` wide (unless
    the piece takes the steepest-descent route below); the pieces inside
    the cone, where the kernels vanish, are dropped, so spacelike windows
    get 0 with no evaluations.  A 2+1D piece that ends on the cone
    carries the kernels' 1/sqrt singularity, which this route
    substitutes away: it integrates over u = sqrt(x), with
    x = |tau| - L, tau = +-(L + u^2) and weight 2u, so the rule sees a
    smooth integrand and the kernels never see x rounded off against L.

    Any other 2+1D piece that spans at least _STEEPEST_DESCENT_PERIODS
    periods of ``omega`` is first offered to :func:`_oscillatory_piece`,
    with the terms built for that piece only, when there are terms; each
    pick it hands back is integrated on GK panels as above, and counts
    the evaluations of both attempts.

    This is the shared pass: on each piece all integrands are evaluated
    on the initial nodes in one call, then each is refined on its own,
    so each gets the value, error and evaluation count it gets alone.
    ``tol``, which the public entries check before they pick a route,
    is split across the pieces.  An integrand that fails on a piece is
    not integrated on later pieces: its record fails with a
    QuadratureError naming ``tol``, with no ``best``, and counts the
    evaluations of the earlier pieces and of the failed attempt, nodes
    whose values were not finite included.
    Returns one Observable per integrand.
    """
    n = len(picks)
    dim, L = s.dimension, s.report.separation
    kernels = [_TIMELIKE[p] for p in picks]
    cuts = sorted({lo, hi} | {c for c in (-L, L, *kinks) if lo < c < hi})
    pieces = [(a, b) for a, b in zip(cuts[:-1], cuts[1:])
              if abs(0.5 * (a + b)) > L]
    if not pieces:
        return [_ZERO] * n
    piece_tol = tol / len(pieces) / (abs(factor) or 1.0)
    width = (2.0 * math.pi / omega) / 4.0

    values = [[] for _ in range(n)]
    err, evals, failed = [0.0] * n, [0] * n, [None] * n
    for a, b in pieces:
        todo = [i for i in range(n) if failed[i] is None]
        if not todo:
            break
        on_cone = dim is Dimension.D2p1 and (a == L or b == -L)
        results = {}
        if terms is not None and dim is Dimension.D2p1 and not on_cone \
                and omega * (b - a) >= 2.0 * math.pi * _STEEPEST_DESCENT_PERIODS:
            for i, res in zip(todo, _oscillatory_piece(
                    L, [picks[i] for i in todo],
                    [(om, amp, [cs[i] for i in todo])
                     for om, amp, cs in terms(a, b)], a, b, piece_tol)):
                if isinstance(res, QuadResult):
                    results[i] = res
                else:  # handed back after spending res evaluations
                    evals[i] += res
        redo = [i for i in todo if i not in results]
        ends, piece_width = (a, b), width
        if on_cone:
            end = b if a == L else a
            sign, u_end = math.copysign(1.0, end), math.sqrt(abs(end) - L)
            # du = dx / (2u): an x-width W maps to at least W / (2 u_end)
            ends, piece_width = (0.0, u_end), width / (2.0 * u_end)

        def f(v):
            if on_cone:  # v is u = sqrt(x)
                x = v * v
                tau, jac = sign * (L + x), 2.0 * v
            else:
                tau, x, jac = v, np.abs(v) - L, 1.0
            w = weight(tau)
            return [jac * (kernels[i](dim, tau, x, L) * w[i]) for i in redo]

        if redo:
            results.update(zip(redo, _integrate_shared(
                f, len(redo), *ends, piece_tol, piece_width)))
        for i, res in results.items():
            if isinstance(res, QuadratureError):
                spent = evals[i] + res.evaluations
                exc = QuadratureError(
                    f"tol {tol:.3e} not reached on the lag piece "
                    f"[{a!r}, {b!r}]: {res}", res.reason, evaluations=spent,
                )
                exc.__cause__ = res
                failed[i] = _failed(exc, spent)
                continue
            values[i].append(res.value)
            err[i] += res.abs_error_estimate
            evals[i] += res.evaluations
    return [
        failed[i] or Observable(
            factor * math.fsum(values[i]), abs(factor) * err[i], evals[i])
        for i in range(n)
    ]


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


def _correlation_observables(s, upper, picks, tol):
    """4 int dtau K(tau) C(tau) for each pick, _S2 (K = D) or _HF (K = F),
    in one shared pass: double integrals over both windows, Bob's up to
    ``upper`` (see :func:`_bob_upper`), whose kernels depend only on
    tau = t2 - t1.  One Observable per pick."""
    a_on, a_off = s.alice.window.t_on, s.alice.window.t_off
    b_on = s.bob.window.t_on
    corr, terms = _window_correlation(s, upper, picks)
    return _lag_integrals(
        s, picks, corr, terms, max(s.alice.gap, s.bob.gap), b_on - a_off,
        upper - a_on, (b_on - a_on, upper - a_off), tol, 4.0,
    )


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
    [Psi_A(min(T_off,A, t - L)) - Psi_A(T_on,A)], 0 until t - L passes
    T_on,A, with Psi_A Alice's bias antiderivative."""
    a_on = s.alice.window.t_on
    end = min(s.alice.window.t_off, t - s.report.separation)
    if not end > a_on:
        return _ZERO
    times = (t, a_on, end)
    if not _phases_finite(s, times):
        return _UNBOUNDED
    c_a, om_a = _bias_coeff(s.alice), s.alice.gap
    amplitude = 4.0 * abs(c_a) * abs(_bias_coeff(s.bob)) / om_a
    return Observable(-2.0 * detector_bias(s.bob, t)
                      * _change(c_a, om_a, a_on, end),
                      _rounding(s, amplitude, *times), 0)


# Why each pick (by index) is rejected where the cone meets its integration
# region: D's on-cone part is the 3+1D delta, F's is unspecified in every
# dimension.
_ON_CONE_REJECTIONS = (
    "3+1D windows touch the lightcone: the signal lives on the on-cone "
    "delta; use s2_null_3p1 for this configuration",
    "field energy for windows touching the lightcone depends on the "
    "kernel's unspecified on-cone part; rejected",
)


def _route(s: Scenario, pick, lo: float, hi: float, closed_form, tol):
    """The one route rule: a pick's rejection, closed form or zero, or
    None for the lag pass.  [lo, hi] is the range of the lags t2 - t1
    over the pick's integration region, which the cone meets when
    lo <= L <= hi; a region that only touches the cone meets it.

    Off the cone D is 1/2 in 1+1D, 0 in 3+1D and decays in 2+1D, and F
    vanishes in all three.  So a kernel with an on-cone part where the
    cone meets the region is rejected: F in every dimension, D's delta
    in 3+1D.  Otherwise 1+1D D takes ``closed_form()``, failed with
    reason "roundoff" when its rounding bound exceeds ``tol``, a kernel
    that vanishes off the cone gives 0, and 2+1D takes the lag pass.
    """
    if lo <= s.report.separation <= hi and (
            pick == _HF or s.dimension is Dimension.D3p1):
        return _failed(InvalidScenarioError(_ON_CONE_REJECTIONS[pick]))
    if s.dimension is Dimension.D1p1 and pick == _S2:
        obs = closed_form()
        if not obs.quad_error <= tol:
            return _failed(QuadratureError(
                f"the closed form's rounding bound {obs.quad_error:.3e} "
                f"exceeds tol {tol:.3e}", "roundoff"))
        return obs
    if s.dimension is not Dimension.D2p1:
        return _ZERO
    return None


def _correlations(s: Scenario, t: Optional[float], picks, tol: float):
    """For each pick, the record of its public route, for a ``tol``
    already checked.  The scenario and the time are checked once, and a
    failure there is every pick's.  An empty Bob window gives exact
    zeros; otherwise t2 runs over [T_on,B, upper] and t1 over Alice's
    window, and :func:`_route` decides from their lag range.  The picks
    it leaves to the lag pass share it, which gives each the value,
    error and count of its own route."""
    try:
        require_valid(s)
        upper = _bob_upper(s, t)
    except ValueError as exc:
        return [_failed(exc)] * len(picks)
    a, b_on = s.alice.window, s.bob.window.t_on
    if upper == b_on:
        return [_ZERO] * len(picks)
    out = {p: _route(s, p, b_on - a.t_off, upper - a.t_on,
                     lambda: _s2_1p1(s, upper), tol)
           for p in picks}
    lag = [p for p in picks if out[p] is None]
    if lag:
        out.update(zip(lag, _correlation_observables(s, upper, lag, tol)))
    return [out[p] for p in picks]


def s2_observable(
    s: Scenario, t: Optional[float] = None, tol: float = DEFAULT_TOL
) -> Observable:
    """Leading-order signalling shift of Bob's excitation probability.

    S2 = 4 int dt2 int dt1 bias_A(t1) * Re(alpha_B* beta_B e^{i Om_B t2}
    * i D(t2 - t1, L)), per lambda_A lambda_B, with t2 running over Bob's
    window up to ``t`` (default: his switch-off time); returned with its
    error estimate and evaluation count.  1+1D takes its closed form
    (see :func:`_s2_1p1`), 3+1D its zero off the cone (Huygens), and
    2+1D the lag quadrature.
    """
    _check_tol(tol)
    return _one(_correlations(s, t, [_S2], tol)[0])


def interaction_energy_observable(
    s: Scenario, t: float, tol: float = DEFAULT_TOL
) -> Observable:
    """Signalling contribution to the interaction energy <H_I,B> at t.

    Equals -4 Re(alpha_B* beta_B e^{i Omega_B t}) K(t) with
    K(t) = int bias_A(t1) D(t - t1, L) dt1, per lambda_A lambda_B, with
    error bookkeeping.  1+1D takes its closed form (see :func:`_hI_1p1`),
    3+1D is 0 off the cone, and 2+1D takes the lag quadrature; the
    integral's lags t - t1 run over [t - T_off,A, t - T_on,A].  ``tol``,
    the scenario and ``t`` are checked first, in every dimension: each
    raises ValueError.
    """
    _check_tol(tol)
    return _one(_interaction(s, t, tol))


def _interaction(s: Scenario, t: float, tol: float) -> Observable:
    """interaction_energy_observable's record, for a ``tol`` already
    checked: a scenario or time it rejects, :func:`_route`'s outcome, or
    the lag quadrature."""
    w, a = s.bob.window, s.alice.window
    try:
        require_valid(s)
        if not w.t_on <= t <= w.t_off:
            raise ValueError(
                f"t={t!r} outside bob's window [{w.t_on!r}, {w.t_off!r}]")
    except ValueError as exc:
        return _failed(exc)
    out = _route(s, _S2, t - a.t_off, t - a.t_on, lambda: _hI_1p1(s, t),
                 tol)
    return _interaction_lag(s, t, tol) if out is None else out


def _interaction_lag(s: Scenario, t: float, tol: float) -> Observable:
    """-4 bias_B(t) int bias_A(t - tau) D(tau, L) dtau on the lag
    quadrature: the 2+1D route, and the 1+1D closed form's oracle."""
    weight, terms = _interaction_weight(s, t)
    a = s.alice.window
    return _lag_integrals(
        s, [_S2], weight, terms, s.alice.gap, t - a.t_off, t - a.t_on, (),
        tol, -4.0 * detector_bias(s.bob, t))[0]


def field_energy_observable(
    s: Scenario, t: Optional[float] = None, tol: float = DEFAULT_TOL
) -> Observable:
    """Signalling contribution to the field energy after time t.

    4 int dt2 int dt1 bias_A(t1) bias_B(t2) F(t1 - t2, L) over Bob's
    window up to t, with F the field-energy kernel; identically zero in
    1+1D and 3+1D for timelike windows (cone-supported kernel), computed
    by quadrature in 2+1D.  Per lambda_A lambda_B, with error bookkeeping.
    """
    _check_tol(tol)
    return _one(_correlations(s, t, [_HF], tol)[0])


def row_observables(s: Scenario, t: Optional[float] = None,
                    tol: float = DEFAULT_TOL):
    """One row's (s2, hI_on, hI_off, hf_sig), each the record of its
    public route: the Observable it returns, or a failed one holding the
    ValueError or QuadratureError it raises.

    s2 and hf_sig run over Bob's window up to min(t, T_off) (``t``
    default: T_off) in one shared pass; hI is taken at T_on and at
    min(t, T_off).  A bad scenario or time fails each record it
    concerns, but a ``tol`` that is not finite and positive raises
    ValueError, in every dimension.
    """
    _check_tol(tol)
    s2, hf = _correlations(s, t, [_S2, _HF], tol)
    w = s.bob.window
    return (s2, _interaction(s, w.t_on, tol),
            _interaction(s, w.t_off if t is None else min(t, w.t_off), tol),
            hf)


def s2_null_3p1(s: Scenario) -> float:
    """Null-ray signalling in 3+1D: the on-cone delta collapses S2 to the
    window correlation at lag L, i.e. to the times whose forward light ray
    lands inside Bob's window, which is integrated in closed form.

    The overall sign inherits the retarded-kernel normalization
    convention (the magnitude does not); returns 0 with a warning when
    the ray never connects the windows.
    """
    if s.dimension is not Dimension.D3p1:
        raise InvalidScenarioError(
            f"null-signalling op requires 3+1D, scenario is {s.dimension}"
        )
    report = require_valid(s)
    L = report.separation
    if L <= 0:
        raise InvalidScenarioError("null-signalling op requires L > 0")
    if report.causal_class is not CausalClass.LIGHTCONE_CROSSING:
        warnings.warn(
            "the null ray from Alice's window never meets Bob's window; "
            "s2_null_3p1 is 0",
            stacklevel=2,
        )
        return 0.0
    delta_coeff = greens.commutator_kernel(
        Dimension.D3p1, L, L).on_lightcone_delta
    # 4 int bias_A(t1) Re(alpha_B* beta_B e^{i Om_B (t1+L)} * i * coeff):
    # the window correlation at the lag tau = L
    corr, _ = _window_correlation(s, s.bob.window.t_off, [_S2])
    return 4.0 * delta_coeff * float(corr(L)[0])


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
