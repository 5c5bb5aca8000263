"""Vacuum kernels of the massless scalar field: the one home of their
closed forms.

* The commutator kernel D, defined by [phi(x_A,t1), phi(x_B,t2)] = i D 1,
  carries the signal.
* The field-energy kernel F = dD/dtau, the momentum integral in the
  field-Hamiltonian expectation, carries the radiated energy.

Both vanish outside the lightcone.  Beyond it each is one vectorized
function of the lag tau and its distance x = |tau| - L to the cone, in
which nothing cancels near the cone; :mod:`qcc.signalling` integrates
these and, in 2+1D, their continuations into the upper half-plane.  The
scalar kernels of (dt, L) are their 0-d case plus the domain logic,
including the 3+1D on-cone delta coefficient of D, the only
distributional part represented.  :func:`regularized_momentum_integral`
is the independent oracle for F: exact in |k| per plane wave,
quadrature over directions, and Richardson extrapolation in the Abel
damping parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import DEFAULT_TOL, QuadResult, QuadratureError, integrate_1d
from .scenario import Dimension

__all__ = [
    "KernelValue",
    "KernelDomainError",
    "commutator_kernel",
    "commutator_timelike",
    "commutator_continued",
    "field_energy_kernel",
    "field_energy_timelike",
    "field_energy_continued",
    "regularized_momentum_integral",
]


class KernelDomainError(ValueError):
    """Kernel evaluated where its pointwise value is undefined."""


@dataclass(frozen=True)
class KernelValue:
    """Pointwise kernel amplitude plus an optional lightcone-delta weight.

    ``on_lightcone_delta`` is the coefficient of delta(dt - L) carried by
    the kernel (nonzero only for the 3+1D commutator); ``value`` is the
    regular part away from the cone.
    """

    value: float
    on_lightcone_delta: float = 0.0


_ZERO = KernelValue(0.0)  # the value outside the cone; frozen, so shared

# The members as module names: on Python 3.11 an enum member lookup costs
# about 0.15 us, a tenth of a scalar kernel call
_D1, _D2, _D3 = Dimension.D1p1, Dimension.D2p1, Dimension.D3p1


def _sign(v):
    # a float takes math, since a numpy ufunc on a float costs ~0.25 us
    if isinstance(v, float):
        return math.copysign(1.0, v) if v else 0.0
    return np.sign(v)


def _sqrt(v):
    # both roots round correctly, so a float and an array agree to the bit
    return math.sqrt(v) if isinstance(v, float) else np.sqrt(v)


def commutator_timelike(dim: Dimension, tau, x, L: float):
    """D(tau, L) beyond the cone, given tau and x = |tau| - L, as floats
    or arrays: sgn(tau)/2 in 1+1D, sgn(tau) / (2 pi sqrt(x (|tau| + L)))
    in 2+1D and 0 in 3+1D."""
    if dim is _D2:
        return _sign(tau) / (2.0 * math.pi * _sqrt(x * (abs(tau) + L)))
    if dim is _D1:
        return 0.5 * _sign(tau)
    return 0.0 * x  # x >= 0, so +0.0 in x's shape


def field_energy_timelike(dim: Dimension, tau, x, L: float):
    """F(tau, L) beyond the cone, arguments as for
    :func:`commutator_timelike`: -|tau| / (2 pi (x (|tau| + L))^{3/2}) in
    2+1D, and 0 in 1+1D and 3+1D, where its support is the cone."""
    if dim is _D2:
        a = abs(tau)
        q = x * (a + L)
        # q sqrt(q) rounds alike on floats and arrays; numpy's pow may not
        return -a / (2.0 * math.pi * (q * _sqrt(q)))
    return 0.0 * x


def commutator_continued(z, L: float):
    """The 2+1D D continued from the lags tau > L into the upper
    half-plane, on an array z: 1/(2 pi r), with r the product of the
    principal roots sqrt(z - L) sqrt(z + L)."""
    return 1.0 / (2.0 * math.pi * (np.sqrt(z - L) * np.sqrt(z + L)))


def field_energy_continued(z, L: float):
    """The 2+1D F continued likewise: -z / (2 pi r^3)."""
    return -z / (2.0 * math.pi * (np.sqrt(z - L) * np.sqrt(z + L)) ** 3)


def commutator_kernel(dim: Dimension, dt: float, L: float) -> KernelValue:
    """Commutator kernel D(dt, L), dt = t2 - t1, at spatial separation L.

    0 outside the cone in every dimension, :func:`commutator_timelike`
    inside it.  That is 0 in 3+1D, where the kernel is the pure lightcone
    distribution -sgn(dt)/(4 pi L) * delta(|dt| - L), reported via
    ``on_lightcone_delta``.  In 1+1D the jump on the cone is assigned the
    inside value (measure zero either way).  KernelDomainError in 2+1D
    exactly on the cone (non-integrable 1/sqrt endpoint) and in 3+1D at
    L = 0 (pure contact distribution).
    """
    if L < 0:
        raise ValueError(f"separation must be >= 0, got {L!r}")
    x = abs(dt) - L
    if x < 0:
        return _ZERO
    delta = 0.0
    if dim is _D3:
        if L == 0.0:
            raise KernelDomainError(
                "3+1D commutator kernel at zero separation is a pure "
                "contact distribution"
            )
        delta = -math.copysign(1.0, dt) / (4.0 * math.pi * L)
    elif x == 0 and dim is _D2:
        raise KernelDomainError(
            f"2+1D commutator kernel diverges on the lightcone "
            f"(|dt| = L = {L!r})"
        )
    return KernelValue(commutator_timelike(dim, dt, x, L), delta)


def field_energy_kernel(dim: Dimension, tau: float, L: float) -> KernelValue:
    """Field-energy kernel F(tau, L) away from the lightcone.

    F is the Abel-regularized angular average of the momentum integral
    int d^n k/(2 pi)^n Re e^{i(|k| tau - k.dx)} -- concretely, in 2+1D,
    (1/2pi) int_0^inf k J0(kL) cos(k tau) dk.  0 outside the cone in
    every dimension, :func:`field_energy_timelike` inside it.

    The on-cone distributional part is not represented (``KernelDomainError``
    on |tau| = L): all supported integrations keep strictly away from it.
    """
    if L < 0:
        raise ValueError(f"separation must be >= 0, got {L!r}")
    x = abs(tau) - L
    if x == 0:
        raise KernelDomainError(
            f"field-energy kernel is distributional on the lightcone "
            f"(|tau| = L = {L!r})"
        )
    if x < 0:
        return _ZERO
    return KernelValue(field_energy_timelike(dim, tau, x, L))


def _damped_level(dim: Dimension, tau: float, L: float,
                  eps: float) -> list[QuadResult]:
    """The momentum integral damped by e^{-eps |k|}, at one eps, in pieces.

    Each plane wave's k-integral is exact,
    int_0^inf k^{n-1} cos(a k) e^{-eps k} dk = Re[(n-1)! / (eps - i a)^n]
    with a = tau - L cos(theta), so only the directions are integrated:
    the two of a line in 1+1D, theta over [0, pi] otherwise, cut where
    a = 0 when |tau| < L (the integrand peaks there with width ~eps).  The
    pieces share DEFAULT_TOL / 100; one whose share is below the roundoff
    floor keeps its best estimate.
    """
    n = dim.spatial

    def radial(a):
        return (math.factorial(n - 1) / (eps - 1j * a) ** n).real

    if n == 1:
        return [QuadResult((radial(tau - L) + radial(tau + L)) / (2.0 * math.pi),
                           0.0, 2)]
    if n == 3 and L == 0:
        raise ValueError("3+1D momentum integral needs L > 0")

    def f(theta):
        # a = tau - L cos(theta), with 1 - cos = 2 sin^2 and 1 + cos = 2 cos^2
        # of theta/2: next to the cone, a ~ 0 is then not the difference of
        # two numbers ~L, which loses ~eps L
        if tau >= 0:
            a = (tau - L) + 2.0 * L * np.sin(0.5 * theta) ** 2
        else:
            a = (tau + L) - 2.0 * L * np.cos(0.5 * theta) ** 2
        # times S_{n-1} / (2 pi)^n and the measure dtheta or sin(theta) dtheta
        wave = radial(a)
        if n == 2:
            return wave / (2.0 * math.pi ** 2)
        return wave * np.sin(theta) / (4.0 * math.pi ** 2)

    cuts = [0.0, math.acos(tau / L), math.pi] if abs(tau) < L else [0.0, math.pi]
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        try:
            parts.append(integrate_1d(f, lo, hi,
                                      DEFAULT_TOL * 1e-2 / (len(cuts) - 1)))
        except QuadratureError as exc:
            if exc.reason != "roundoff":
                raise
            parts.append(exc.best)
    return parts


# The value at eps = 0 of the polynomial through the levels (eps_j, v_j),
# eps_j = c 2^-j, is sum w_j v_j whatever c, with the Lagrange weights
# w_j = prod 2^j / (2^j - 2^k) over the other levels k: an integer ratio, so
# each weight is correctly rounded.  The seven levels give the value, the
# last six the residual.
_WEIGHTS, _WEIGHTS_LAST = (
    [2 ** (j * (len(ks) - 1))
     / math.prod(2 ** j - 2 ** k for k in ks if k != j) for j in ks]
    for ks in (range(7), range(1, 7)))


def regularized_momentum_integral(dim: Dimension, tau: float,
                                  L: float) -> QuadResult:
    """Momentum integral of the field-energy kernel, by damping + extrapolation.

    The momentum integral is damped by e^{-eps |k|} at seven eps, from
    0.3 |  |tau| - L  | (0.3 max(|tau|, L, 1) on the cone) halving each
    time: small enough that the damped value is in the asymptotic regime,
    large enough that the angular integrands, peaked with width ~eps, stay
    cheap to resolve.  Each level is exact in |k|, by quadrature over
    directions (:func:`_damped_level`); the sequence is then extrapolated
    polynomially in eps to eps -> 0, as the levels' sum with the fixed
    weights ``_WEIGHTS``.  The returned error estimate is the distance to
    the extrapolation from the last six levels plus the propagated
    quadrature errors, sum |w_j| err_j, the exact bound of the weighted
    sum; the caller judges it.

    This op is the oracle for :func:`field_energy_kernel`: it evaluates
    no closed form of F.  In 2+1D the limit
    -(1/2 pi^2) int_0^pi dtheta / (tau - L cos theta)^2 of the damped
    integrals is what produces -|tau| / (2 pi (tau^2 - L^2)^{3/2}).
    """
    scale = abs(abs(tau) - L) or max(abs(tau), L, 1.0)
    levels = [_damped_level(dim, tau, L, 0.3 * scale * 0.5 ** j)
              for j in range(7)]
    values = [math.fsum(r.value for r in lv) for lv in levels]
    best = math.fsum(w * v for w, v in zip(_WEIGHTS, values))
    residual = abs(best - math.fsum(
        w * v for w, v in zip(_WEIGHTS_LAST, values[1:])))
    quad_error = math.fsum(abs(w) * r.abs_error_estimate
                           for w, lv in zip(_WEIGHTS, levels) for r in lv)
    evaluations = sum(r.evaluations for lv in levels for r in lv)
    return QuadResult(best, residual + quad_error, evaluations)
