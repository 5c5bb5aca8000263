"""Scenario builders and oracle routes shared across the test modules."""

import cmath
import math

import numpy as np

from qcc.greens import commutator_kernel
from qcc.quadrature import QuadratureError, integrate_1d, integrate_2d_rect
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
