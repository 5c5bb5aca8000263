"""Self-contained invariant suite behind the ``validate`` CLI verb.

Each check exercises one documented invariant of the library on built-in
scenarios and reports the measured defect against its threshold.  The
suite is deterministic (fixed seeds) so CI failures are reproducible.
A check stays only if it can fail: some mutant of the library fails it,
or it probes a call whose result depends on the host (numpy's
transcendental functions, say).  One that compares an expression with
itself belongs in the tests.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from . import channel, greens, signalling
from .quadrature import _integrate_shared, _roundoff_best, integrate_1d
from .scenario import (
    ComplexAmplitudePair,
    DetectorSpec,
    Dimension,
    Scenario,
    SwitchingWindow,
    detector_bias,
)

__all__ = ["CheckResult", "run_all_checks", "format_report"]

_ISQ = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict; ``ms`` is its wall time, set by
    :func:`run_all_checks`."""

    name: str
    passed: bool
    detail: str
    ms: Optional[float] = None


def _scenario(dim, L, a_win, b_win, a_state, b_state, gap_a=3.0, gap_b=3.0):
    n = dim.spatial
    return Scenario(
        dim,
        DetectorSpec(gap_a, ComplexAmplitudePair(*a_state),
                     (0.0,) * n, SwitchingWindow(*a_win)),
        DetectorSpec(gap_b, ComplexAmplitudePair(*b_state),
                     (L,) + (0.0,) * (n - 1), SwitchingWindow(*b_win)),
    )


def _demo(dim=Dimension.D2p1, t1=5.0, L=1.0):
    return _scenario(dim, L, (0.0, 3.0), (t1, t1 + 3.0),
                     (_ISQ, -1j * _ISQ), (_ISQ, _ISQ))


def _s2_by_quadrature(s, tol):
    """S2 on the lag quadrature, past the exact routes it is checked
    against."""
    picks = [signalling._S2]
    lag_pass = signalling._window_correlation(s, s.bob.window.t_off, picks)
    return signalling._one(
        signalling._lag_integrals(s, [(picks, lag_pass)], tol)[0])


def _hI_by_quadrature(s, t, tol):
    """hI at t on the lag quadrature, past the 1+1D closed form."""
    return signalling._one(signalling._lag_integrals(
        s, [([signalling._S2], signalling._interaction_weight(s, t))],
        tol)[0])


def _random_state(rng):
    v = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.hypot(*v)
    return complex(v[0], v[1]) / norm, complex(v[2], v[3]) / norm


_CHECKS: List[Callable[[], CheckResult]] = []


def _check(name: str):
    """Register the decorated body as the check ``name``.  The body
    returns (passed, detail); the check reports that verdict, or what the
    body raised, under that one name, so it never raises itself."""
    def register(body):
        @functools.wraps(body)
        def check() -> CheckResult:
            try:
                passed, detail = body()
            except Exception as err:  # noqa: BLE001 - report, don't crash
                passed, detail = False, f"raised {type(err).__name__}: {err}"
            return CheckResult(name, passed, detail)

        _CHECKS.append(check)
        return check
    return register


# --- quadrature ---------------------------------------------------------


@_check("quadrature-linearity")
def _check_quad_linearity():
    f = lambda t: np.sin(3.0 * t) * t
    g = lambda t: np.cos(5.0 * t) + t * t
    a, b = 0.3, 2.7
    lhs = integrate_1d(lambda t: 2.5 * f(t) - 1.25 * g(t), a, b, 1e-11).value
    rhs = (2.5 * integrate_1d(f, a, b, 1e-11).value
           - 1.25 * integrate_1d(g, a, b, 1e-11).value)
    defect = abs(lhs - rhs)
    return defect < 1e-10, f"|defect| = {defect:.3e} (tol 1e-10)"


@_check("quadrature-additivity")
def _check_quad_additivity():
    f = lambda t: np.exp(-t) * np.sin(7.0 * t)
    whole = integrate_1d(f, 0.0, 4.0, 1e-11).value
    split = (integrate_1d(f, 0.0, 1.37, 1e-11).value
             + integrate_1d(f, 1.37, 4.0, 1e-11).value)
    defect = abs(whole - split)
    return defect < 1e-10, f"|defect| = {defect:.3e} (tol 1e-10)"


def _horner(coeffs, t):
    """sum_k coeffs[k] t^k by Horner's rule (constant term first); ``t``
    may be an array."""
    value = 0.0
    for c in reversed(coeffs):
        value = value * t + c
    return value


def _poly_cos_integral(coeffs, omega, a, b) -> float:
    """Exact integral of p(t) * cos(omega t) over [a, b], for the
    polynomial p with coefficients ``coeffs`` (constant term first).

    Repeated integration by parts gives the antiderivative
    Re[e^{i omega t} sum_k (-1)^k p^(k)(t) / (i omega)^(k+1)], a finite
    sum for a polynomial; each p^(k)(t) is a Horner sum over the
    coefficients of the k-th derivative, which are formed once for both
    endpoints.  It shares no code with the integrator.
    """
    derivs = [[float(c) for c in coeffs]]
    for _ in derivs[0][1:]:
        derivs.append([j * c for j, c in enumerate(derivs[-1])][1:])

    def antiderivative(t):
        total = 0j
        for k, deriv in enumerate(derivs):
            total += (-1) ** k * _horner(deriv, t) / (1j * omega) ** (k + 1)
        return (cmath.exp(1j * omega * t) * total).real

    return float(antiderivative(b) - antiderivative(a))


def _honesty_cases():
    """The quadrature-error-honesty family, from a fixed seed: 120 cases
    (coeffs, omega, a, b) of a polynomial of degree 0 to 3 times
    cos(omega t) on [a, b]."""
    rng = random.Random(20240817)
    for _ in range(120):
        deg = rng.randrange(4)
        coeffs = [rng.gauss(0.0, 1.0) for _ in range(deg + 1)]
        omega = rng.uniform(0.5, 12.0)
        a = rng.uniform(-2.0, 0.0)
        b = a + rng.uniform(0.5, 4.0)
        yield coeffs, omega, a, b


def _honesty_pass(cases, tol, per_period):
    """The honesty family integrated at ``tol`` in one shared GK pass, on
    panels 1/``per_period`` of each case's period: per case, the result
    or the failure :func:`integrate_1d` gives alone.  The
    integrand reads each node's case from its interval index; each
    case's coefficients are padded to degree 3, which leaves its Horner
    sum exact, and gathered one degree at a time."""
    coeffs = [np.array([c[k] if k < len(c) else 0.0 for c, _, _, _ in cases])
              for k in range(4)]
    omegas = np.array([omega for _, omega, _, _ in cases])

    def f(t, j):
        return [_horner([c[j] for c in coeffs], t) * np.cos(omegas[j] * t)]

    (results,) = _integrate_shared(
        f, [(a, b, (2 * math.pi / omega) / per_period, (0,))
            for _, omega, a, b in cases], [tol])
    return results


@_check("quadrature-error-honesty")
def _check_quad_error_honesty():
    # randomized polynomial x cosine family against its exact integral;
    # tol 1e-13 is below the roundoff floor of some cases, and the best
    # estimate such a failure carries must be honest as well
    cases = list(_honesty_cases())
    exact = [_poly_cos_integral(*case) for case in cases]
    within = []
    for tol, per_period in ((1e-9, 4), (1e-13, 8)):
        results = map(_roundoff_best, _honesty_pass(cases, tol, per_period))
        missed = sum(abs(r.value - v) > 10.0 * max(r.abs_error_estimate, 1e-15)
                     for r, v in zip(results, exact))
        within.append(1.0 - missed / len(cases))
    return (min(within) >= 0.99,
            f"{within[0]:.1%} (tol 1e-9) and {within[1]:.1%} (tol 1e-13) of "
            f"{len(cases)} cases within 10x estimate of the exact integral "
            "(need >= 99%)")


# --- scenario -----------------------------------------------------------


@_check("bias-amplitude-bound")
def _check_bias_bound():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(40):
        alpha, beta = _random_state(rng)
        det = DetectorSpec(rng.uniform(0.2, 9.0),
                           ComplexAmplitudePair(alpha, beta),
                           (0.0,), SwitchingWindow(0.0, 1.0))
        ts = np.array([rng.uniform(-20.0, 20.0) for _ in range(64)])
        excess = np.max(np.abs(detector_bias(det, ts))) - abs(alpha) * abs(beta)
        worst = max(worst, float(excess))
    return worst <= 1e-12, f"max excess over |alpha||beta| = {worst:.3e}"


@_check("bias-periodicity")
def _check_bias_periodicity():
    det = DetectorSpec(3.7, ComplexAmplitudePair(0.6, 0.8j),
                       (0.0,), SwitchingWindow(0.0, 1.0))
    ts = np.linspace(-5.0, 5.0, 41)
    period = 2.0 * math.pi / det.gap
    defect = float(np.max(np.abs(
        detector_bias(det, ts + period) - detector_bias(det, ts))))
    return defect < 1e-12, f"max |bias(t+T) - bias(t)| = {defect:.3e}"


@_check("bias-orthogonal-flip")
def _check_bias_orthogonal_flip():
    pair = ComplexAmplitudePair(0.3 + 0.4j, math.sqrt(0.75))
    det = DetectorSpec(2.1, pair, (0.0,), SwitchingWindow(0.0, 1.0))
    flipped = DetectorSpec(2.1, pair.orthogonal(), (0.0,),
                           SwitchingWindow(0.0, 1.0))
    ts = np.linspace(0.0, 9.0, 33)
    defect = float(np.max(np.abs(
        detector_bias(det, ts) + detector_bias(flipped, ts))))
    return defect < 1e-12, f"max |bias + bias_orth| = {defect:.3e}"


# --- greens -------------------------------------------------------------


@_check("commutator-2p1-decay")
def _check_kernel_decay():
    dts = np.linspace(1.05, 12.0, 200)
    vals = [greens.commutator_kernel(Dimension.D2p1, float(dt), 1.0).value
            for dt in dts]
    monotone = all(b < a for a, b in zip(vals, vals[1:]))
    return (monotone,
            "strictly decreasing in dt > L" if monotone
            else "NOT monotone")


@_check("field-kernel-oracle")
def _check_field_kernel_oracle():
    worst = worst_ratio = 0.0
    for tau, L in ((1.5, 1.0), (3.0, 1.0), (4.0, 2.0)):
        closed = greens.field_energy_kernel(Dimension.D2p1, tau, L).value
        oracle = greens.regularized_momentum_integral(
            Dimension.D2p1, tau, L)
        dev = abs(closed - oracle.value)
        worst = max(worst, dev / abs(closed))
        worst_ratio = max(worst_ratio, dev / oracle.abs_error_estimate)
    return (worst < 1e-4 and worst_ratio <= 1.0,
            f"max rel deviation = {worst:.3e} (tol 1e-4), "
            f"max |closed - oracle| / estimate = {worst_ratio:.3f}")


# --- signalling ---------------------------------------------------------


@_check("causality-spacelike-s2")
def _check_spacelike_zero():
    worst = 0.0
    for dim in Dimension:
        s = _scenario(dim, 30.0, (0.0, 3.0), (5.0, 8.0),
                      (_ISQ, -1j * _ISQ), (_ISQ, _ISQ))
        worst = max(worst, abs(signalling.s2_observable(s, tol=1e-8).value))
    return (worst == 0.0,
            f"max |s2| spacelike = {worst:.3e} (must be exactly 0)")


@_check("strong-huygens-3p1")
def _check_huygens():
    s = _demo(Dimension.D3p1)
    obs = signalling.s2_observable(s, tol=1e-8)
    ok = obs.value == 0.0 and obs.evaluations == 0
    return (ok,
            f"s2 = {obs.value!r}, evaluations = {obs.evaluations} "
            "(need exact 0 with no quadrature)")


@_check("orthogonal-sign-flip")
def _check_sign_flip():
    worst = 0.0
    for dim in (Dimension.D1p1, Dimension.D2p1):
        s = _demo(dim)
        flipped = replace(
            s, alice=replace(s.alice, state=s.alice.state.orthogonal()))
        for op in (
            lambda sc: signalling.s2_observable(sc, tol=1e-10),
            lambda sc: signalling.interaction_energy_observable(
                sc, 6.0, tol=1e-10),
            lambda sc: signalling.field_energy_observable(sc, tol=1e-10),
        ):
            worst = max(worst, abs(op(s).value + op(flipped).value))
    return worst < 1e-9, f"max |x + x_flipped| = {worst:.3e} (tol 1e-9)"


@_check("eigenstate-nullity")
def _check_eigenstate_nullity():
    worst = 0.0
    for dim in (Dimension.D1p1, Dimension.D2p1):
        s = _scenario(dim, 1.0, (0.0, 3.0), (5.0, 8.0),
                      (1.0, 0.0), (_ISQ, _ISQ))
        for obs in (_s2_by_quadrature(s, 1e-8),
                    signalling.interaction_energy_observable(s, 6.0, 1e-8),
                    signalling.field_energy_observable(s, tol=1e-8)):
            worst = max(worst, abs(obs.value))
    return worst < 1e-14, f"max |signal| with eigenstate Alice = {worst:.3e}"


@_check("s2-1p1-closed-vs-quadrature")
def _check_1p1_closed_vs_quad():
    # L = 1 is timelike, and at L = 6 the cone crosses Bob's window
    worst = 0.0
    rng = random.Random(17)
    for _ in range(5):
        gap_a = rng.uniform(0.5, 8.0)
        gap_b = rng.uniform(0.5, 8.0)
        states = _random_state(rng), _random_state(rng)
        for L in (1.0, 6.0):
            s = _scenario(Dimension.D1p1, L, (0.0, 3.0), (5.0, 8.0),
                          *states, gap_a, gap_b)
            closed = signalling.s2_observable(s).value
            quad = _s2_by_quadrature(s, 1e-11).value
            worst = max(worst, abs(closed - quad) / max(abs(closed), 1e-12))
    return worst < 1e-8, f"max rel deviation = {worst:.3e} (tol 1e-8)"


@_check("interaction-energy-closed-form")
def _check_interaction_closed_form():
    # at L = 6, t's past cone covers part of Alice's window or none
    worst = 0.0
    rng = random.Random(19)
    for _ in range(5):
        states = _random_state(rng), _random_state(rng)
        gaps = rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0)
        t = rng.uniform(5.0, 8.0)
        for L in (0.5, 6.0):
            s = _scenario(Dimension.D1p1, L, (0.0, 3.0), (5.0, 8.0),
                          *states, *gaps)
            worst = max(worst, abs(
                _hI_by_quadrature(s, t, 1e-12).value
                - signalling.interaction_energy_observable(s, t).value))
    return worst < 1e-10, f"max |quad - closed| = {worst:.3e} (tol 1e-10)"


@_check("energy-balance")
def _check_energy_balance():
    results = []
    s = _demo(Dimension.D1p1, t1=5.0, L=0.5)
    bal = signalling.energy_balance(s, tol=1e-10)
    results.append(("1+1", abs(bal.residual), 1e-8))
    s = _demo(Dimension.D2p1, t1=5.0)
    bal = signalling.energy_balance(s, tol=1e-9)
    results.append(
        ("2+1", abs(bal.residual), max(1e-6, 10.0 * bal.quad_error)))
    ok = all(r <= lim for _, r, lim in results)
    detail = "; ".join(f"{d}: |res| = {r:.3e} (tol {lim:.1e})"
                       for d, r, lim in results)
    return ok, detail


@_check("oscillatory-route-vs-gk")
def _check_oscillatory_route():
    # the demo's lag piece [5, 8] spans 21.5 periods at gap 45, past the
    # steepest-descent threshold: s2's and hf_sig's integrals at gap_B 45
    # and hI's at alice.gap 45 (t = 8, Alice's whole window) take the
    # route there, and must match the same lag passes on GK panels, where
    # they stay with no terms.  A pick the route hands back pays for the
    # attempt and then for GK, so a route that costs no fewer evaluations
    # than GK counts as handed back
    s = _demo()
    s = replace(s, bob=replace(s.bob, gap=45.0))
    picks = (signalling._S2, signalling._HF)
    corr, terms = signalling._window_correlation(s, 8.0, picks)[:2]
    bias, bias_terms = signalling._interaction_weight(
        replace(s, alice=replace(s.alice, gap=45.0)), 8.0)[:2]
    routed, gk = [list(map(signalling._one, signalling._lag_integrals(s, [
        (picks, (corr, t, 45.0, 5.0, 8.0, (), 1.0, None)),
        (picks[:1], (bias, u, 45.0, 5.0, 8.0, (), 1.0, None))], 1e-10)))
        for t, u in ((terms, bias_terms), (None, None))]
    if any(r.evaluations >= g.evaluations for r, g in zip(routed, gk)):
        return False, "the route handed the piece back to GK"
    worst = max(abs(r.value - g.value) / (r.quad_error + g.quad_error + 1e-15)
                for r, g in zip(routed, gk))
    return (worst <= 1.0,
            f"max |route - GK| / (sum of estimates + 1e-15) = {worst:.3e} "
            f"(need <= 1) for s2, hf_sig and hI on [5, 8] at 21.5 periods, "
            f"{routed[0].evaluations} evaluations each for s2 and hf_sig, "
            f"{routed[2].evaluations} for hI")


@_check("channel-reset-decay")
def _check_channel_reset():
    period = 2.0 * math.pi / 3.0

    def rms(t1):
        samples = [
            signalling.s2_observable(_demo(t1=t1 + x), tol=1e-8).value
            for x in np.linspace(0.0, period, 8, endpoint=False)
        ]
        return math.sqrt(np.mean(np.square(samples)))

    early, late = rms(5.0), rms(11.0)
    return late < early, f"RMS s2: T1~5 {early:.3e} -> T1~11 {late:.3e}"


# --- channel ------------------------------------------------------------


@_check("capacity-closed-vs-bruteforce")
def _check_capacity_oracle():
    g = np.linspace(0.02, 0.98, 25)
    P, Q = np.meshgrid(g, g, indexing="ij")
    mask = np.abs(P - Q) >= 1e-6
    brute = channel.capacity_bruteforce_grid(P.ravel(), Q.ravel(), 1e-11)
    closed = np.array([channel.capacity_closed(float(p), float(q))
                       for p, q in zip(P.ravel(), Q.ravel())])
    worst = float(np.max(np.abs(brute - closed).reshape(P.shape)[mask]))
    return worst < 1e-9, f"max |closed - brute| = {worst:.3e} (tol 1e-9)"


@_check("capacity-positivity")
def _check_capacity_positivity():
    cases = [(0.3, 0.3, False), (0.31, 0.3, True), (0.5, 0.5, False),
             (0.999, 0.001, True)]
    ok = all((channel.capacity_closed(p, q) > 0.0) == positive
             for p, q, positive in cases)
    return ok, "C > 0 iff p != q on probe set"


@_check("capacity-symmetry")
def _check_capacity_symmetry():
    worst = max(
        abs(channel.capacity_closed(p, q) - channel.capacity_closed(q, p))
        for p, q in ((0.9, 0.1), (0.45, 0.2), (0.7, 0.65)))
    return worst < 1e-12, f"max |C(p,q) - C(q,p)| = {worst:.3e}"


@_check("capacity-expansion-consistency")
def _check_expansion_consistency():
    worst = 0.0
    for q in (0.2, 0.5, 0.8):
        ratio = (channel.capacity_closed(q + 1e-4, q)
                 / (1e-8 / (8.0 * math.log(2.0) * q * (1.0 - q))))
        worst = max(worst, abs(ratio - 1.0))
    return worst < 1e-2, f"max |ratio - 1| = {worst:.3e} at delta 1e-4"


@_check("guess-success-margin")
def _check_guess_success():
    stats = channel.channel_stats(_demo(), lambda_product=0.05, tol=1e-8)
    defect = abs((stats.success - 0.5) - 0.5 * (stats.p - stats.q))
    ok = defect < 1e-15 and stats.success > 0.5
    return (ok,
            f"success - 1/2 vs (p - q)/2 defect = {defect:.3e}, "
            f"success = {stats.success:.12f}")


def run_all_checks() -> List[CheckResult]:
    """Run every invariant check, timing each; never raises for a
    failing invariant."""
    results = []
    for check in _CHECKS:
        start = time.perf_counter()
        result = check()
        results.append(
            replace(result, ms=1e3 * (time.perf_counter() - start)))
    return results


def format_report(results: List[CheckResult]) -> str:
    lines = []
    for r in results:
        line = f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}"
        lines.append(line if r.ms is None else f"{line} [{r.ms:.1f} ms]")
    n_fail = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} invariants hold"
        + (f"; {n_fail} FAILED" if n_fail else "")
    )
    return "\n".join(lines)
