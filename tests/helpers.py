"""Scenario builders and oracle routes shared across the test modules."""

import cmath
import math

import numpy as np

from qcc.greens import (
    commutator_continued,
    commutator_kernel,
    commutator_timelike,
    continued_root,
    field_energy_continued,
    field_energy_timelike,
)
from qcc.quadrature import (
    QuadratureError,
    QuadResult,
    _steepest_descent,
    integrate_1d,
    integrate_2d_rect,
)
from qcc.scenario import (
    ComplexAmplitudePair,
    DetectorSpec,
    Dimension,
    Scenario,
    SwitchingWindow,
)

ISQ = 1.0 / math.sqrt(2.0)

# The reference curve scenario: gap-3 detectors, Alice in the
# maximal-bias state (|e> - i|g>)/sqrt(2) on [0, 3], Bob in
# (|e> + |g>)/sqrt(2) listening three time units starting at T1.
ALICE_STATE = (ISQ, -1j * ISQ)
BOB_STATE = (ISQ, ISQ)


def make_scenario(dim, L=1.0, a_win=(0.0, 3.0), b_win=(5.0, 8.0),
                  a_state=ALICE_STATE, b_state=BOB_STATE,
                  gap_a=3.0, gap_b=3.0):
    dim = dim if isinstance(dim, Dimension) else Dimension.parse(dim)
    n = dim.spatial
    return Scenario(
        dim,
        DetectorSpec(gap_a, ComplexAmplitudePair(*a_state),
                     (0.0,) * n, SwitchingWindow(*a_win)),
        DetectorSpec(gap_b, ComplexAmplitudePair(*b_state),
                     (L,) + (0.0,) * (n - 1), SwitchingWindow(*b_win)),
    )


def demo_scenario(dim="2+1", t1=5.0, L=1.0):
    return make_scenario(dim, L=L, b_win=(t1, t1 + 3.0))


def random_state(rng):
    """Haar-ish random normalized (alpha, beta)."""
    v = rng.normal(size=4)
    z = np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]])
    z /= np.linalg.norm(z)
    return complex(z[0]), complex(z[1])


def s2_via_2d_quadrature(s, t=None, tol=1e-10):
    """Second route to S2: assemble the double integral directly on top
    of the generic 2D integrator.  It is independent of the lag
    reduction, the window correlation and the cone substitution, but
    shares D: the scalar kernel is the 0-d case of the one the rows
    evaluate.  D itself is checked through F = dD/dtau and the
    momentum-integral oracle of F.

    Both detector factors are scalar cmath expressions: the integrand runs
    once per node, where a numpy round trip per call would dominate."""
    if t is None:
        t = s.bob.window.t_off
    L = math.dist(s.alice.position, s.bob.position)
    c_a = s.alice.state.alpha.conjugate() * s.alice.state.beta
    c_b = s.bob.state.alpha.conjugate() * s.bob.state.beta

    def f(t2, t1):
        d = commutator_kernel(s.dimension, t2 - t1, L).value
        if d == 0.0:
            return 0.0
        im_b = (c_b * cmath.exp(1j * s.bob.gap * t2)).imag
        bias_a = (c_a * cmath.exp(1j * s.alice.gap * t1)).real
        return -4.0 * im_b * bias_a * d

    upper = min(t, s.bob.window.t_off)
    return integrate_2d_rect(
        f, (s.bob.window.t_on, upper),
        (s.alice.window.t_on, s.alice.window.t_off),
        tol, singular_line=L,
        max_panel_width=2 * math.pi / max(s.alice.gap, s.bob.gap),
    )


def random_timelike_scenario(rng, dim, gap_range=(0.5, 10.0),
                             len_range=(0.5, 5.0)):
    """Random valid, strictly timelike scenario: Bob's window starts a
    safe margin after Alice's ends, with L below that gap."""
    a_len = float(rng.uniform(*len_range))
    b_len = float(rng.uniform(*len_range))
    gap_t = float(rng.uniform(0.5, 3.0))     # dead time between windows
    L = float(rng.uniform(0.1, 0.9)) * gap_t
    a_on = 0.0
    b_on = a_on + a_len + gap_t
    return make_scenario(
        dim, L=L, a_win=(a_on, a_on + a_len), b_win=(b_on, b_on + b_len),
        a_state=random_state(rng), b_state=random_state(rng),
        gap_a=float(rng.uniform(*gap_range)),
        gap_b=float(rng.uniform(*gap_range)),
    )


def random_scenario(rng, dim):
    """Random valid scenario of any causal class: windows
    a_on ~ U(0, 5), a_off = a_on + U(0.1, 6), b_on = a_off + U(0, 4),
    b_off = b_on + U(0.1, 6), separation L ~ U(0, b_off - a_on + 1), and
    gaps from U(0.2, 60)."""
    a_on = float(rng.uniform(0.0, 5.0))
    a_off = a_on + float(rng.uniform(0.1, 6.0))
    b_on = a_off + float(rng.uniform(0.0, 4.0))
    b_off = b_on + float(rng.uniform(0.1, 6.0))
    L = float(rng.uniform(0.0, b_off - a_on + 1.0))
    return make_scenario(
        dim, L=L, a_win=(a_on, a_off), b_win=(b_on, b_off),
        a_state=random_state(rng), b_state=random_state(rng),
        gap_a=float(rng.uniform(0.2, 60.0)),
        gap_b=float(rng.uniform(0.2, 60.0)),
    )


def quad_record(res):
    """A QuadResult by its bits (value, estimate) and evaluations; a
    QuadratureError by its reason, message, evaluations and best."""
    if isinstance(res, QuadratureError):
        return (res.reason, str(res), res.evaluations,
                res.best and quad_record(res.best))
    return (res.value.hex(), res.abs_error_estimate.hex(), res.evaluations)


def integrate_alone(f, a, b, tol, **kwargs):
    """What integrate_1d returns for ``f`` on [a, b], or the
    QuadratureError it raises, in one call for this integral alone."""
    try:
        return integrate_1d(f, a, b, tol, **kwargs)
    except QuadratureError as exc:
        return exc


# The lag kernels D and F past the cone, on the real axis and continued
# into the 2+1D upper half-plane, by pick: 0 for D, 1 for F.
_REAL = (commutator_timelike, field_energy_timelike)
_CONTINUED = (commutator_continued, field_energy_continued)


def route_by_hand(s, picks, terms, a, b, tol):
    """The steepest-descent route on the 2+1D lag piece [a, b] past the
    cone, one integral at a time, for each pick of the weight whose
    exponential ``terms`` (om, amp, coefs) hold on [a, b].  The terms of
    at least 2 periods over the piece are integrated by
    _steepest_descent, one frequency at a time for this pick alone, the
    others, the slowly varying rest, by integrate_1d of the kernel times
    their sum, to tol / 2 on panels a quarter period of their top
    frequency.  Per pick a QuadResult; or, when the rest fails or the
    summed estimate misses ``tol``, the evaluations the attempt spent."""
    L = s.report.separation
    high = [term for term in terms if term[0] * (b - a) >= 4.0 * math.pi]
    low = [term for term in terms if term[0] * (b - a) < 4.0 * math.pi]
    out = []
    for i, p in enumerate(picks):
        values, err, evals = [], 0.0, 0
        for om in dict.fromkeys(om for om, _, _ in high):
            group = [(amp, c[i]) for o, amp, c in high if o == om]

            def g(z, group=group):
                return [_CONTINUED[p](z, continued_root(z, L))
                        * sum(c * amp(z) for amp, c in group)]

            (moment,), (error,), count = _steepest_descent(g, om, a, b)
            values.append(moment.real)
            err += error
            evals += count
        if low:
            def rest(tau):
                return _REAL[p](s.dimension, tau, tau - L, L) * sum(
                    (c[i] * (amp(tau) * np.exp(1j * om * tau))).real
                    for om, amp, c in low)

            top = max(om for om, _, _ in low)
            res = integrate_alone(rest, a, b, 0.5 * tol,
                                  max_panel_width=(2.0 * math.pi / top) / 4)
            failed = isinstance(res, QuadratureError)
            if not failed:
                values.append(res.value)
            err += math.inf if failed else res.abs_error_estimate
            evals += res.evaluations
        out.append(QuadResult(math.fsum(values), err, evals)
                   if err <= tol else evals)
    return out


def lag_pass_by_hand(s, picks, lag_pass, tol, periods):
    """What the lag quadrature gives each pick of ``lag_pass``, the tuple
    (weight, terms, omega, lo, hi, kinks, factor, envelope), on a 2+1D
    region whose lags start past the cone, one integral at a time.  A
    piece that spans at least ``periods`` periods of omega takes
    route_by_hand; any other piece, and a pick the route hands back,
    takes integrate_1d of the kernel times the pick's weight on panels a
    quarter period of omega.
    Each piece gets tol over the number of pieces and over |factor|.
    Per pick (value, quad_error, evaluations), or for a pick that fails
    on a piece (reason, evaluations, message of the piece's failure)."""
    weight, terms, omega, lo, hi, kinks, factor, _ = lag_pass
    L = s.report.separation
    assert lo > L
    cuts = sorted({lo, hi} | {c for c in kinks if lo < c < hi})
    pieces = list(zip(cuts[:-1], cuts[1:]))
    piece_tol = tol / len(pieces) / abs(factor)
    routed = [
        route_by_hand(s, picks, terms(a, b), a, b, piece_tol)
        if omega * (b - a) >= 2.0 * math.pi * periods else [0] * len(picks)
        for a, b in pieces]
    out = []
    for i, p in enumerate(picks):
        values, err, evals = [], 0.0, 0
        for (a, b), res in zip(pieces, routed):
            res = res[i]
            if not isinstance(res, QuadResult):
                evals += res
                res = integrate_alone(
                    lambda t: _REAL[p](s.dimension, t, t - L, L)
                    * weight(t)[i], a, b, piece_tol,
                    max_panel_width=(2.0 * math.pi / omega) / 4)
            if isinstance(res, QuadratureError):
                out.append((res.reason, evals + res.evaluations, str(res)))
                break
            values.append(res.value)
            err += res.abs_error_estimate
            evals += res.evaluations
        else:
            out.append((factor * math.fsum(values), abs(factor) * err,
                        evals))
    return out
